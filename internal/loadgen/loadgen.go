// Package loadgen drives synthetic multiplayer load against a Coterie
// frame server. Each simulated player holds its own TCP session and walks
// the game world issuing frame requests, mimicking the request stream a
// headset's prefetcher produces; the harness reports throughput, fetch
// latency percentiles, and the cache-hit mix. It works against any server
// reachable by address; when handed the in-process *server.Server it also
// reports frame-store residency and evictions.
package loadgen

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"time"

	"coterie/internal/cluster"
	"coterie/internal/fisync"
	"coterie/internal/games"
	"coterie/internal/geom"
	"coterie/internal/netsim"
	"coterie/internal/obs"
	"coterie/internal/server"
	"coterie/internal/transport"
)

// Walk patterns. A walking player revisits grid cells and so exercises
// the frame store's hit path; a scattering player teleports uniformly and
// defeats it, pinning worst-case render throughput.
const (
	PatternWalk    = "walk"    // random walk from spawn, grid-scale steps
	PatternStatic  = "static"  // stand at spawn: all hits after the first
	PatternScatter = "scatter" // uniform random teleports: mostly misses
)

// Config parameterises one load run.
type Config struct {
	// Addr is the frame server's TCP address. A comma-separated list
	// drives a cluster: player p connects to the p mod len(list)-th
	// address, spreading sessions round-robin across the nodes the way a
	// matchmaker would.
	Addr string
	// Game must match the game the server hosts.
	Game string
	// Players is the number of concurrent synthetic players (default 1).
	Players int
	// Rate is each player's request rate in frames/sec; <= 0 means
	// unthrottled (each player requests as fast as the server replies).
	Rate float64
	// Duration bounds the run (default 2s).
	Duration time.Duration
	// Pattern is the movement model (PatternWalk by default).
	Pattern string
	// StepM is the walk step per request in metres; 0 derives a step of
	// a few grid cells so consecutive requests hit nearby points.
	StepM float64
	// SpreadM is the half-width of the spawn scatter around the game's
	// spawn point in metres; 0 derives a couple of steps. Large spreads
	// model players dispersed across the map, each exercising their own
	// region of the frame store.
	SpreadM float64
	// Seed makes player movement reproducible.
	Seed int64
	// DeadlineMs, when > 0, stamps every request with an absolute deadline
	// this many milliseconds after issue (the headset's next-vsync budget:
	// 16.7 for 60 Hz). The server schedules EDF against it, degrades when
	// it is at risk, and sheds when overloaded; shed requests land in the
	// error tally, not the player-fatal path.
	DeadlineMs float64
	// Server, when the target runs in-process, lets the report include
	// frame-store residency and evictions; nil leaves them at -1.
	Server *server.Server
	// AdminAddrs lists the cluster nodes' admin HTTP addresses. When
	// non-empty, the final report embeds a fleet view scraped from them
	// (merged /metrics, /slo and /qoe) so a cluster run's server-side
	// tallies ride along with the client-side ones.
	AdminAddrs []string
	// UDPFrames switches each player to the datagram frame path: fetches
	// go UDP-first (pushed frames consumed from the channel store, then a
	// request datagram) with the TCP session as fallback, and every step
	// uploads FI state over the same socket so the server's trajectory
	// predictor has positions to extrapolate. The server must run a UDP
	// listener on the same address as its TCP one.
	UDPFrames bool
	// Push opts each player's subscription into trajectory-driven server
	// push (needs UDPFrames and a push-enabled server).
	Push bool
	// UDPBudgetMs bounds each UDP fetch attempt before the player falls
	// back to TCP (0 = 50 ms). Fallback round trips are charged the spent
	// budget on top of the TCP time, so the percentiles price the miss.
	UDPBudgetMs float64
	// LossRate injects receive-side datagram loss per player (loopback
	// sockets do not lose packets on their own), exercising FEC repair
	// and NACK retransmits; LossSeed makes the drops reproducible.
	LossRate float64
	LossSeed int64
}

// Report summarises a load run.
type Report struct {
	Players  int           `json:"players"`
	Duration time.Duration `json:"duration"`

	Frames int64 `json:"frames"` // successful fetches
	Errors int64 `json:"errors"`
	Bytes  int64 `json:"bytes"`
	// BytesPerFrame is the mean bytes on the wire per successful fetch —
	// the number the delta codec exists to shrink.
	BytesPerFrame float64 `json:"bytes_per_frame"`
	// DeltaFrames counts replies served delta-coded against a reference
	// the player held (walking players re-request nearby points, so the
	// server finds references constantly).
	DeltaFrames int64 `json:"delta_frames"`

	// Request mix, classified from each reply's server-side stages:
	// a reply that rendered is a store miss, one that only queued joined
	// another request's render, and one with neither hit the store.
	Hits    int64 `json:"hits"`
	Joins   int64 `json:"joins"`
	Renders int64 `json:"renders"`

	FramesPerSec float64 `json:"frames_per_sec"`
	HitRate      float64 `json:"hit_rate"`
	// P50/P95/P99 cover successful fetches only; error round trips (sheds,
	// server rejects) are tallied separately below so a fast rejection
	// can't masquerade as a fast serve.
	P50Ms float64 `json:"p50_ms"`
	P95Ms float64 `json:"p95_ms"`
	P99Ms float64 `json:"p99_ms"`
	// ErrP50/95/99Ms are the round-trip percentiles of errored requests
	// (0 when none errored).
	ErrP50Ms float64 `json:"err_p50_ms"`
	ErrP95Ms float64 `json:"err_p95_ms"`
	ErrP99Ms float64 `json:"err_p99_ms"`

	// DeadlineMs echoes Config.DeadlineMs; DeadlineCompliance is the
	// fraction of successful fetches whose round trip fit that budget
	// (the 16.7 ms frame budget when no deadline was configured).
	DeadlineMs         float64 `json:"deadline_ms"`
	DeadlineCompliance float64 `json:"deadline_compliance"`
	// Degrade-rung mix of the successful fetches (see transport.DegradeRung):
	// exact, stale-but-similar.
	RungExact int64 `json:"rung_exact"`
	RungStale int64 `json:"rung_stale"`
	// Origin mix (see transport.FrameOrigin): PeerFrames were answered by
	// the grid point's owner over the cluster peer hop, FailoverFrames
	// were re-rendered locally because the owner was down or the hop was
	// at deadline risk. Both zero against a single-node server.
	PeerFrames     int64 `json:"peer_frames"`
	FailoverFrames int64 `json:"failover_frames"`

	// Datagram-path mix (UDPFrames runs only). UDPFetches are successful
	// fetches satisfied over UDP (pushed frame or request/reply datagram);
	// TCPFallbacks exhausted their UDP budget and fell back. PushHits are
	// fetches served by a frame the server pushed ahead of the request —
	// the latency the push machinery exists to delete — and
	// WastedPushBytes are pushed bytes the player never consumed
	// (mispredicted or evicted pushes: the bandwidth cost of pushing).
	UDPFetches      int64   `json:"udp_fetches,omitempty"`
	TCPFallbacks    int64   `json:"tcp_fallbacks,omitempty"`
	PushedFrames    int64   `json:"pushed_frames,omitempty"`
	PushedBytes     int64   `json:"pushed_bytes,omitempty"`
	PushHits        int64   `json:"push_hits,omitempty"`
	PushHitRatio    float64 `json:"push_hit_ratio,omitempty"`
	WastedPushBytes int64   `json:"wasted_push_bytes,omitempty"`
	NacksSent       int64   `json:"nacks_sent,omitempty"`
	FECRecovered    int64   `json:"fec_recovered,omitempty"`
	CorruptFrames   int64   `json:"corrupt_frames,omitempty"`

	// Frame-store state after the run; -1 when the server is remote.
	StoreBytes int64 `json:"store_bytes"`
	Evictions  int64 `json:"evictions"`

	// Fleet is the post-run fleet view scraped from Config.AdminAddrs
	// (nil when none were configured).
	Fleet *cluster.FleetView `json:"fleet,omitempty"`
}

// playerStats is one player's tally, merged after the run.
type playerStats struct {
	frames, errors, bytes int64
	hits, joins, renders  int64
	deltas                int64
	rungs                 [2]int64
	peer, failover        int64
	udpFetches, tcpFalls  int64
	udp                   *server.UDPStats // end-of-run channel snapshot
	latencies             []float64        // ms per successful fetch
	errLatencies          []float64        // ms per errored (shed/rejected) fetch
	err                   error
}

// Run executes the configured load and reports. It returns an error only
// when the run could not start (unknown game, no player ever connected);
// per-request failures land in Report.Errors.
func Run(cfg Config) (Report, error) {
	if cfg.Players <= 0 {
		cfg.Players = 1
	}
	if cfg.Duration <= 0 {
		cfg.Duration = 2 * time.Second
	}
	if cfg.Pattern == "" {
		cfg.Pattern = PatternWalk
	}
	switch cfg.Pattern {
	case PatternWalk, PatternStatic, PatternScatter:
	default:
		return Report{}, fmt.Errorf("loadgen: unknown pattern %q", cfg.Pattern)
	}
	g, err := games.BuildByName(cfg.Game)
	if err != nil {
		return Report{}, fmt.Errorf("loadgen: %w", err)
	}
	addrs := splitAddrs(cfg.Addr)
	if len(addrs) == 0 {
		return Report{}, fmt.Errorf("loadgen: no server address")
	}
	step := cfg.StepM
	if step <= 0 {
		step = 3 * g.Scene.Grid.Step
	}

	stats := make([]playerStats, cfg.Players)
	deadline := time.Now().Add(cfg.Duration)
	start := time.Now()
	var wg sync.WaitGroup
	for p := 0; p < cfg.Players; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			stats[p] = runPlayer(cfg, addrFor(addrs, p), g, step, p, deadline)
		}(p)
	}
	wg.Wait()
	elapsed := time.Since(start)

	var rep Report
	rep.Players = cfg.Players
	rep.Duration = elapsed
	rep.StoreBytes, rep.Evictions = -1, -1
	rep.DeadlineMs = cfg.DeadlineMs
	var all, allErr []float64
	connected := false
	var firstErr error
	for i := range stats {
		st := &stats[i]
		if st.err != nil {
			if firstErr == nil {
				firstErr = st.err
			}
			continue
		}
		connected = true
		rep.Frames += st.frames
		rep.Errors += st.errors
		rep.Bytes += st.bytes
		rep.Hits += st.hits
		rep.Joins += st.joins
		rep.Renders += st.renders
		rep.DeltaFrames += st.deltas
		rep.RungExact += st.rungs[transport.RungExact]
		rep.RungStale += st.rungs[transport.RungStale]
		rep.PeerFrames += st.peer
		rep.FailoverFrames += st.failover
		rep.UDPFetches += st.udpFetches
		rep.TCPFallbacks += st.tcpFalls
		if st.udp != nil {
			rep.PushedFrames += st.udp.PushedRecv
			rep.PushedBytes += st.udp.PushedBytes
			rep.PushHits += st.udp.PushServes
			rep.WastedPushBytes += st.udp.PushedBytes - st.udp.PushedUsedBytes
			rep.NacksSent += st.udp.NacksSent
			rep.FECRecovered += st.udp.Reassembly.Recovered
			rep.CorruptFrames += st.udp.Reassembly.Corrupt
		}
		all = append(all, st.latencies...)
		allErr = append(allErr, st.errLatencies...)
	}
	if !connected {
		return rep, fmt.Errorf("loadgen: no player connected: %w", firstErr)
	}
	if secs := elapsed.Seconds(); secs > 0 {
		rep.FramesPerSec = float64(rep.Frames) / secs
	}
	if rep.Frames > 0 {
		rep.HitRate = float64(rep.Hits) / float64(rep.Frames)
		rep.BytesPerFrame = float64(rep.Bytes) / float64(rep.Frames)
		rep.PushHitRatio = float64(rep.PushHits) / float64(rep.Frames)
	}
	sort.Float64s(all)
	rep.P50Ms = percentile(all, 0.50)
	rep.P95Ms = percentile(all, 0.95)
	rep.P99Ms = percentile(all, 0.99)
	sort.Float64s(allErr)
	rep.ErrP50Ms = percentile(allErr, 0.50)
	rep.ErrP95Ms = percentile(allErr, 0.95)
	rep.ErrP99Ms = percentile(allErr, 0.99)
	budget := cfg.DeadlineMs
	if budget <= 0 {
		budget = obs.FrameBudgetMs
	}
	if len(all) > 0 {
		within := 0
		for _, l := range all {
			if l <= budget+1e-9 {
				within++
			}
		}
		rep.DeadlineCompliance = float64(within) / float64(len(all))
	}
	if cfg.Server != nil {
		rep.StoreBytes, rep.Evictions, _ = cfg.Server.StoreStats()
	}
	if len(cfg.AdminAddrs) > 0 {
		fleet := cluster.Scrape(cluster.FleetConfig{Admins: cfg.AdminAddrs})
		rep.Fleet = &fleet
	}
	return rep, nil
}

// splitAddrs parses Config.Addr into the node address list: comma-split,
// whitespace-trimmed, empties dropped.
func splitAddrs(addr string) []string {
	var addrs []string
	for _, a := range strings.Split(addr, ",") {
		if a = strings.TrimSpace(a); a != "" {
			addrs = append(addrs, a)
		}
	}
	return addrs
}

// addrFor is the round-robin node assignment: player p connects to the
// p mod n-th address.
func addrFor(addrs []string, p int) string {
	if len(addrs) == 0 {
		return ""
	}
	return addrs[p%len(addrs)]
}

// walker replays one player's deterministic movement: trajectory is a pure
// function of (seed, player, pattern, step), so a warm-up pass can walk the
// exact ground a measured run will cover.
type walker struct {
	rng     *rand.Rand
	bounds  geom.Rect
	pattern string
	step    float64
	pos     geom.Vec2
}

func newWalker(cfg Config, g *games.Game, step float64, p int) *walker {
	w := &walker{
		rng:     rand.New(rand.NewSource(cfg.Seed*1000003 + int64(p))),
		bounds:  g.Scene.Grid.Bounds,
		pattern: cfg.Pattern,
		step:    step,
	}
	// Spread spawn points — by default a little, so players don't
	// serialise on one point's singleflight from the first request.
	halfW := cfg.SpreadM
	if halfW <= 0 {
		halfW = 2 * step
	}
	w.pos = w.bounds.ClampPoint(geom.V2(
		g.Spawn.X+(w.rng.Float64()-0.5)*2*halfW,
		g.Spawn.Z+(w.rng.Float64()-0.5)*2*halfW,
	))
	return w
}

// advance moves to the next position per the movement model.
func (w *walker) advance() {
	switch w.pattern {
	case PatternStatic:
		// stay put
	case PatternScatter:
		w.pos = geom.V2(
			w.bounds.MinX+w.rng.Float64()*(w.bounds.MaxX-w.bounds.MinX),
			w.bounds.MinZ+w.rng.Float64()*(w.bounds.MaxZ-w.bounds.MinZ),
		)
	default: // PatternWalk
		theta := w.rng.Float64() * 2 * math.Pi
		w.pos = w.bounds.ClampPoint(geom.V2(
			w.pos.X+w.step*math.Cos(theta),
			w.pos.Z+w.step*math.Sin(theta),
		))
	}
}

// Warm replays every player's first `steps` trajectory positions and
// fetches each distinct grid point once per target node (one warm session
// per address in Config.Addr), so the frame stores hold the ground a
// measured run will cover — the load-harness stand-in for the paper's
// offline pre-rendering of all reachable grid points (§5.1). Returns the
// number of warm fetches issued.
func Warm(cfg Config, steps int) (int, error) {
	if cfg.Players <= 0 {
		cfg.Players = 1
	}
	if cfg.Pattern == "" {
		cfg.Pattern = PatternWalk
	}
	g, err := games.BuildByName(cfg.Game)
	if err != nil {
		return 0, fmt.Errorf("loadgen: %w", err)
	}
	step := cfg.StepM
	if step <= 0 {
		step = 3 * g.Scene.Grid.Step
	}
	addrs := splitAddrs(cfg.Addr)
	if len(addrs) == 0 {
		return 0, fmt.Errorf("loadgen warm: no server address")
	}
	// One warm session per node: each player's ground is fetched through
	// the node that player will use in the measured run, so every node's
	// store (not just the owners') holds it.
	cls := make(map[string]*server.Client, len(addrs))
	defer func() {
		for _, cl := range cls {
			cl.Close()
		}
	}()
	seen := make(map[string]map[geom.GridPoint]bool, len(addrs))
	total := 0
	for p := 0; p < cfg.Players; p++ {
		addr := addrFor(addrs, p)
		cl := cls[addr]
		if cl == nil {
			var err error
			if cl, err = server.Dial(addr, cfg.Game, 0); err != nil {
				return total, fmt.Errorf("loadgen warm: %w", err)
			}
			cls[addr] = cl
			seen[addr] = make(map[geom.GridPoint]bool)
		}
		w := newWalker(cfg, g, step, p)
		for s := 0; s < steps; s++ {
			pt := g.Scene.Grid.Snap(w.pos)
			if !seen[addr][pt] {
				seen[addr][pt] = true
				total++
				if _, _, _, err := cl.FetchTraced(pt); err != nil {
					return total, fmt.Errorf("loadgen warm: %w", err)
				}
			}
			w.advance()
		}
	}
	return total, nil
}

// runPlayer is one synthetic player's session: connect, walk, fetch.
func runPlayer(cfg Config, addr string, g *games.Game, step float64, p int, deadline time.Time) playerStats {
	var st playerStats
	cl, err := server.Dial(addr, cfg.Game, uint8(p))
	if err != nil {
		st.err = err
		return st
	}
	defer cl.Close()

	// The datagram frame path rides a second, UDP socket to the same
	// address; the TCP session above stays open as the fallback.
	var udp *server.UDPChannel
	udpBudget := time.Duration(cfg.UDPBudgetMs * float64(time.Millisecond))
	if udpBudget <= 0 {
		udpBudget = 50 * time.Millisecond
	}
	if cfg.UDPFrames {
		udp, err = server.DialUDP(addr, uint8(p), cfg.Push, nil)
		if err != nil {
			st.err = err
			return st
		}
		defer udp.Close()
		if cfg.LossRate > 0 {
			udp.SetImpairer(netsim.NewImpairer(cfg.LossRate, cfg.LossSeed*1000003+int64(p)))
		}
	}

	w := newWalker(cfg, g, step, p)

	var interval time.Duration
	if cfg.Rate > 0 {
		interval = time.Duration(float64(time.Second) / cfg.Rate)
		// Desynchronise the players' request phases: real headsets tick on
		// independent vsync clocks, so without jitter every player would
		// fire in the same instant each period — an adversarial burst
		// pattern no real deployment produces. The jitter draw comes from
		// a separate source so throttling doesn't shift the trajectory.
		jrng := rand.New(rand.NewSource(cfg.Seed*7919 + int64(p)))
		time.Sleep(time.Duration(jrng.Float64() * float64(interval)))
	}
	next := time.Now()
	var fiSeq uint32
	for time.Now().Before(deadline) {
		pt := g.Scene.Grid.Snap(w.pos)
		if udp != nil {
			// FI state first: it carries the position the server's
			// trajectory predictor extrapolates, so pushes target where
			// this player is headed. A lost round self-heals (Sync
			// resubscribes on timeout); the walk goes on regardless.
			// It runs before the fetch timer starts: FI sync is
			// control-plane traffic a real client overlaps with
			// rendering, not part of the frame fetch.
			fiSeq++
			udp.Sync(fisync.State{Player: uint8(p), Seq: fiSeq, Pos: w.pos}, udpBudget)
		}
		fetchStart := time.Now()
		served := false
		if udp != nil {
			if data, ok := udp.Fetch(pt, udpBudget); ok {
				st.frames++
				st.udpFetches++
				st.bytes += int64(len(data))
				// Datagram frames carry no rung or stage breakdown on the
				// wire; they are whole store bytes (pushes and replies come
				// from the warmed store), so they tally as exact hits.
				st.hits++
				st.rungs[transport.RungExact]++
				st.latencies = append(st.latencies, msSince(fetchStart))
				served = true
			} else {
				st.tcpFalls++
			}
		}
		if !served {
			var reqDeadline float64
			if cfg.DeadlineMs > 0 {
				reqDeadline = float64(time.Now().UnixNano())/1e6 + cfg.DeadlineMs
			}
			reply, sentMs, doneMs, err := cl.FetchWithDeadline(pt, reqDeadline)
			// A UDP-mode fallback is charged its spent UDP budget on top of
			// the TCP round trip: the player really waited both.
			lat := doneMs - sentMs
			if udp != nil {
				lat = msSince(fetchStart)
			}
			if err != nil {
				st.errors++
				// The server answering with an error (a shed under admission
				// control, an out-of-grid reject) leaves the session usable:
				// count it, keep its round trip out of the success percentiles,
				// and walk on. A transport error kills the session.
				var se *server.ServerError
				if !errors.As(err, &se) {
					return st
				}
				st.errLatencies = append(st.errLatencies, lat)
			} else {
				st.frames++
				st.bytes += int64(len(reply.Data))
				if reply.Kind == transport.FrameDelta {
					st.deltas++
				}
				st.latencies = append(st.latencies, lat)
				if int(reply.Rung) < len(st.rungs) {
					st.rungs[reply.Rung]++
				}
				switch reply.Origin {
				case transport.OriginPeer:
					st.peer++
				case transport.OriginFailover:
					st.failover++
				}
				switch {
				case reply.RenderMs > 0:
					st.renders++
				case reply.QueueMs > 0:
					st.joins++
				default:
					st.hits++
				}
			}
		}

		w.advance()

		if interval > 0 {
			next = next.Add(interval)
			if d := time.Until(next); d > 0 {
				time.Sleep(d)
			}
		}
	}
	if udp != nil {
		s := udp.Stats()
		st.udp = &s
	}
	return st
}

// msSince is the wall milliseconds elapsed since t.
func msSince(t time.Time) float64 {
	return float64(time.Since(t)) / float64(time.Millisecond)
}

// percentile reads the q-quantile from ascending samples by
// nearest-rank interpolation; 0 for an empty set.
func percentile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q * float64(len(sorted)-1))
	return sorted[i]
}

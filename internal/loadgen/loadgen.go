// Package loadgen drives synthetic multiplayer load against live Coterie
// frame servers from outside their process. Each simulated player holds
// its own TCP session and walks the game world issuing frame requests,
// mimicking the request stream a headset's prefetcher produces; the
// harness reports throughput, fetch latency percentiles, and the cache-hit
// mix. The repository's performance record is bench/ (in-process, fixed
// work); this is the driver for servers and clusters already running.
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
	"coterie/internal/games"
	"coterie/internal/geom"
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
	// Seed makes player movement reproducible.
	Seed int64
	// DeadlineMs, when > 0, stamps every request with an absolute deadline
	// this many milliseconds after issue (the headset's next-vsync budget:
	// 16.7 for 60 Hz). The server schedules EDF against it, degrades when
	// it is at risk, and sheds when overloaded; shed requests land in the
	// error tally, not the player-fatal path.
	DeadlineMs float64
	// AdminAddrs lists the cluster nodes' admin HTTP addresses. When
	// non-empty, the final report embeds a fleet view scraped from them
	// (merged /metrics, /slo and /qoe) so a cluster run's server-side
	// tallies ride along with the client-side ones.
	AdminAddrs []string
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
	latencies             []float64 // ms per successful fetch
	errLatencies          []float64 // ms per errored (shed/rejected) fetch
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
	// A step of a few grid cells, so consecutive requests hit nearby points.
	step := 3 * g.Scene.Grid.Step

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

// walker replays one player's deterministic movement: the trajectory is a
// pure function of (seed, player, pattern, step).
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
	// Spread spawn points a little, so players don't serialise on one
	// point's singleflight from the first request.
	halfW := 2 * step
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

// runPlayer is one synthetic player's session: connect, walk, fetch.
func runPlayer(cfg Config, addr string, g *games.Game, step float64, p int, deadline time.Time) playerStats {
	var st playerStats
	cl, err := server.Dial(addr, cfg.Game, uint8(p))
	if err != nil {
		st.err = err
		return st
	}
	defer cl.Close()

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
	for time.Now().Before(deadline) {
		pt := g.Scene.Grid.Snap(w.pos)
		var reqDeadline float64
		if cfg.DeadlineMs > 0 {
			reqDeadline = float64(time.Now().UnixNano())/1e6 + cfg.DeadlineMs
		}
		reply, sentMs, doneMs, err := cl.FetchWithDeadline(pt, reqDeadline)
		lat := doneMs - sentMs
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

		w.advance()

		if interval > 0 {
			next = next.Add(interval)
			if d := time.Until(next); d > 0 {
				time.Sleep(d)
			}
		}
	}
	return st
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

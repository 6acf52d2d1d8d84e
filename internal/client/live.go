package client

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"coterie/internal/cache"
	"coterie/internal/codec"
	"coterie/internal/core"
	"coterie/internal/fisync"
	"coterie/internal/geom"
	"coterie/internal/img"
	"coterie/internal/obs"
	"coterie/internal/prefetch"
	"coterie/internal/runtime"
	"coterie/internal/trace"
	"coterie/internal/transport"
)

// This file is the live backend of the shared client runtime: the same
// pipeline that drives the deterministic testbed (internal/core) runs here
// over real sockets — frames over TCP (liveSource), FI sync over UDP
// (liveFISync on a UDPChannel), and a WallClock in place of the simulator.
// RunLive is the entry point cmd/coterie-client and the loopback e2e test
// share.

// Fixed parameters of a live client session.
const (
	liveCacheBytes = 512 << 20 // frame cache cap, as in the testbed
	// liveFITimeout bounds each UDP FI round trip. A lost datagram counts
	// as a drop and the next frame syncs again.
	liveFITimeout = 250 * time.Millisecond
	liveUDPBudget = 50 * time.Millisecond // one UDP fetch attempt, then TCP
)

// LiveConfig tunes one live client session.
type LiveConfig struct {
	// Speed is the replay-speed multiplier; ≤0 means real time.
	Speed float64
	// DecodeFrames is ignored: every fetched frame is validated by
	// decoding it, decoded exact intra frames are held as delta references
	// by the rule the server applies (transport.HeldRefs), and decoded
	// delta frames are reconstructed against them. The field stays because
	// callers outside this module still set it.
	DecodeFrames bool
	// IdleTimeout bounds how long the clock waits on a wedged fetch
	// before giving up; 0 means the WallClock default.
	IdleTimeout time.Duration
	// Obs, when non-nil, receives the session's metrics and frame traces:
	// the shared pipeline instruments plus live-specific ones (client
	// transport byte counts, FI sync drops). nil disables instrumentation.
	Obs *obs.Registry

	// UDPFrames enables the datagram frame path on the FI sync socket:
	// fetches try UDP first (bounded by liveUDPBudget) and fall back to
	// TCP, and reassembled pushes fill the frame cache ahead of the
	// pipeline's lookups.
	UDPFrames bool
	// Push opts this session into trajectory-driven server push
	// (meaningful only with UDPFrames; the server must run with -push).
	Push bool
	// FrameSink, when set, observes every frame entering the display
	// pipeline: fetch completions (pushed=false) and absorbed server
	// pushes (pushed=true). Runs on the clock goroutine; the byte-identity
	// e2e captures frames here.
	FrameSink func(pt geom.GridPoint, data []byte, pushed bool)
}

// LiveReport aggregates one live session.
type LiveReport struct {
	Metrics  runtime.PlayerMetrics
	Cache    cache.Stats
	Prefetch prefetch.Stats
	// Fetches and BytesFetched count far-BE transfers from the server.
	Fetches      int64
	BytesFetched int64
	// FetchLatenciesMs are per-fetch wall-clock round trips, sorted.
	FetchLatenciesMs []float64
	// FIDrops counts FI sync round trips lost to the timeout.
	FIDrops int64
	// Wall is the real elapsed time of the session.
	Wall time.Duration
	// UDP reports the datagram frame path (nil unless UDPFrames was on):
	// push/NACK/reassembly accounting from the channel, plus the
	// UDP-vs-TCP fetch split.
	UDP          *UDPStats
	UDPFetches   int64
	TCPFallbacks int64
}

// LatencyQuantile returns the q-quantile fetch latency in milliseconds.
func (r *LiveReport) LatencyQuantile(q float64) float64 {
	l := r.FetchLatenciesMs
	if len(l) == 0 {
		return 0
	}
	i := int(q * float64(len(l)))
	if i >= len(l) {
		i = len(l) - 1
	}
	return l[i]
}

// RunLive replays a movement trace through the shared runtime pipeline
// against a live server: Coterie's far-BE prefetch path over TCP with the
// similarity cache, FI sync over UDP. The returned report is valid even
// when an error cut the session short.
func RunLive(env *core.Env, addr string, tr *trace.Trace, player int, cfg LiveConfig) (*LiveReport, error) {
	cl, err := Dial(addr, env.Game.Spec.Name, uint8(player))
	if err != nil {
		return nil, err
	}
	defer cl.Close()
	cl.conn.Instrument(transport.NewMetrics(cfg.Obs, "client.transport"))
	ch, err := DialUDP(addr, uint8(player), cfg.UDPFrames && cfg.Push, cfg.Obs)
	if err != nil {
		return nil, fmt.Errorf("udp: %w", err)
	}
	defer ch.Close()
	// udp is the datagram frame path: nil keeps every fetch on TCP.
	var udp *UDPChannel
	if cfg.UDPFrames {
		udp = ch
	}

	clock := runtime.NewWallClock(cfg.Speed)
	if cfg.IdleTimeout > 0 {
		clock.SetIdleTimeout(cfg.IdleTimeout)
	}
	speed := cfg.Speed
	if speed <= 0 {
		speed = 1
	}
	src := &liveSource{
		clock: clock, cl: cl, udp: udp, lat: &runtime.LatencyAcc{}, speed: speed, sink: cfg.FrameSink,
	}
	fiSync := &liveFISync{clock: clock, fi: ch}
	if cfg.Obs != nil {
		fiSync.obsSyncs = cfg.Obs.Counter("fi.syncs")
		fiSync.obsDrops = cfg.Obs.Counter("fi.drops")
	}

	ccfg, _ := cache.Version(3) // intra-player similar frames, as in the testbed
	ccfg.CapacityBytes = liveCacheBytes
	frameCache := cache.New(ccfg)
	pf := prefetch.New(env.Game.Scene.Grid, env.Meta, frameCache, src, player, prefetch.DefaultConfig())
	if udp != nil {
		// Server pushes land in the frame cache (via the clock, which owns
		// it) so the pipeline's next lookup hits without a fetch. The
		// reassembler already CRC-verified the bytes; marking the entry
		// Pushed makes the consumption visible as cache.pushed_hits.
		grid := env.Game.Scene.Grid
		sink := cfg.FrameSink
		udp.onPush = func(pt geom.GridPoint, data []byte) {
			clock.IOStarted()
			clock.Post(func() {
				leaf, sig, _ := env.Meta(pt)
				frameCache.Insert(cache.Entry{
					Point:   pt,
					Pos:     grid.Pos(pt),
					LeafID:  leaf,
					NearSig: sig,
					Data:    data,
					Size:    len(data),
					Owner:   player,
					Pushed:  true,
				})
				if sink != nil {
					sink(pt, data, true)
				}
			})
		}
	}

	endMs := tr.Seconds() * 1000
	scene := env.Game.Scene
	q := scene.NewQuery()
	rcfg := runtime.Config{
		System:         runtime.Coterie,
		Device:         env.Device,
		Grid:           scene.Grid,
		EndMs:          endMs,
		TotalTriangles: scene.TotalTriangles(),
		LODFactor:      env.Game.Spec.LODFactor(),
		RadiusAt:       env.Map.RadiusAt,
		TrianglesWithin: func(pos geom.Vec2, radius float64) int {
			return scene.TrianglesWithin(q, pos, radius)
		},
	}
	client := runtime.NewClient(player, rcfg, runtime.Deps{
		Clock:      clock,
		FI:         fiSync,
		Trace:      tr,
		Source:     src,
		Cache:      frameCache,
		Prefetcher: pf,
		Net:        src,
		Latencies:  src.lat,
		Obs:        cfg.Obs,
	})

	start := time.Now()
	client.Start()
	runErr := clock.Run(endMs)

	report := &LiveReport{
		Metrics:          client.Metrics(),
		Cache:            frameCache.Stats(),
		Prefetch:         pf.Stats(),
		Fetches:          src.fetches.Load(),
		BytesFetched:     src.bytes.Load(),
		FetchLatenciesMs: src.wallMs,
		FIDrops:          fiSync.drops,
		Wall:             time.Since(start),
	}
	if udp != nil {
		st := udp.Stats()
		report.UDP = &st
		report.UDPFetches = src.udpHits.Load()
		report.TCPFallbacks = src.tcpFalls.Load()
	}
	sort.Float64s(report.FetchLatenciesMs)
	if err := src.firstError(); err != nil {
		return report, err
	}
	return report, runErr
}

// liveSource fetches far-BE frames over the TCP protocol. It implements
// both runtime.FrameSource (and prefetch.Source) and runtime.NetMonitor.
// The protocol is synchronous request/reply on one connection, so fetches
// serialise on a mutex; the prefetcher's in-flight cap bounds queueing.
type liveSource struct {
	clock *runtime.WallClock
	cl    *Client
	lat   *runtime.LatencyAcc
	// speed converts wall-clock durations to virtual session milliseconds
	// (the WallClock multiplier; 1 in real time).
	speed float64

	inflight atomic.Int64
	fetches  atomic.Int64
	bytes    atomic.Int64

	// udp, when set, is tried before the TCP round trip: a pushed or
	// UDP-replied frame within liveUDPBudget skips the connection entirely.
	udp      *UDPChannel
	udpHits  atomic.Int64
	tcpFalls atomic.Int64
	// sink observes frames entering the pipeline (clock goroutine).
	sink func(pt geom.GridPoint, data []byte, pushed bool)

	// connMu serialises the request/reply connection and guards err and
	// refs.
	connMu sync.Mutex
	err    error
	refs   Refs

	// wallMs, nextDeadlineMs and last are only touched on the clock
	// goroutine (Post callbacks and the post-run report, which share
	// RunLive's goroutine).
	wallMs []float64
	// nextDeadlineMs is the virtual session time the next Fetch's reply is
	// needed by (runtime.DeadlineSetter), consumed by that Fetch; 0 means
	// none armed.
	nextDeadlineMs float64
	// last is the stage decomposition of the most recent completed fetch
	// (runtime.StageReporter).
	last obs.FetchStages
}

// Fetch implements runtime.FrameSource: the blocking round trip runs on
// its own goroutine and re-enters the pipeline through the clock. On
// error the completion still fires (size 0) so the Eq. 2 join never
// wedges; the error surfaces through firstError after the run.
func (s *liveSource) Fetch(player int, pt geom.GridPoint, done func(data []byte, size int, startMs, endMs float64)) {
	startVirtual := s.clock.Now()
	deadline := s.consumeDeadline(startVirtual)
	s.clock.IOStarted()
	s.inflight.Add(1)
	go func() {
		t0 := time.Now()
		var (
			reply transport.FrameReply
			err   error
		)
		udpHit := false
		if s.udp != nil {
			if data, ok := s.udp.Fetch(pt, liveUDPBudget); ok {
				// The reassembler CRC-verified the payload; a frame that
				// fails to decode falls back to TCP rather than poisoning
				// the pipeline. UDP frames are always intra-coded store
				// bytes, and they never become delta references: the
				// server holds only what its TCP session served.
				if s.validateUDPFrame(pt, data) == nil {
					reply = transport.FrameReply{Point: pt, Data: data}
					udpHit = true
				}
			}
		}
		if !udpHit {
			reply, err = s.fetchOnce(pt, deadline)
		}
		wall := time.Since(t0)
		s.inflight.Add(-1)
		s.clock.Post(func() {
			end := s.clock.Now()
			if err != nil {
				s.last = obs.FetchStages{}
				done(nil, 0, startVirtual, end)
				return
			}
			data := reply.Data
			s.fetches.Add(1)
			s.bytes.Add(int64(len(data)))
			s.wallMs = append(s.wallMs, float64(wall.Microseconds())/1000)
			s.lat.Add(end - startVirtual)
			if udpHit {
				s.udpHits.Add(1)
				// No server stage spans on the datagram path: the whole
				// round trip is network time.
				s.last = obs.FetchStages{NetMs: end - startVirtual, Valid: true}
			} else {
				if s.udp != nil {
					s.tcpFalls.Add(1)
				}
				s.recordStages(reply, end-startVirtual)
			}
			done(data, len(data), startVirtual, end)
			if s.sink != nil {
				s.sink(pt, data, false)
			}
		})
	}()
}

// validateUDPFrame decodes a UDP-fetched frame (always intra-coded) to
// validate it; the raster is released immediately and never becomes a
// delta reference.
func (s *liveSource) validateUDPFrame(pt geom.GridPoint, data []byte) error {
	g, err := codec.Decode(data)
	if err != nil {
		return fmt.Errorf("udp frame %v does not decode: %w", pt, err)
	}
	codec.ReleaseGray(g)
	return nil
}

// recordStages derives the stage decomposition of one completed fetch
// (clock goroutine only) from durations alone: the server's stage spans,
// converted to virtual session milliseconds via the replay speed, and the
// round trip the pipeline saw. NetMs absorbs the remainder, so
// NetMs+QueueMs+RenderMs+EncodeMs equals the round trip exactly. No
// timestamp from another host is read.
func (s *liveSource) recordStages(reply transport.FrameReply, rttVirtual float64) {
	queue := reply.QueueMs * s.speed
	render := reply.RenderMs * s.speed
	encode := reply.EncodeMs * s.speed
	if sum := queue + render + encode; sum > rttVirtual && sum > 0 {
		// The replay-speed conversion and the two hosts' clock rates can
		// make the server-side span nominally exceed the measured round
		// trip; scale it down so the decomposition still sums to the RTT.
		f := rttVirtual / sum
		queue, render, encode = queue*f, render*f, encode*f
	}
	s.last = obs.FetchStages{
		NetMs:       rttVirtual - queue - render - encode,
		QueueMs:     queue,
		RenderMs:    render,
		EncodeMs:    encode,
		TraceID:     obs.TraceID(s.cl.Player, reply.ReqID),
		DeltaFrame:  reply.Kind == transport.FrameDelta,
		DegradeRung: uint8(reply.Rung),
		Valid:       true,
	}
}

// LastFetchStages implements runtime.StageReporter.
func (s *liveSource) LastFetchStages() obs.FetchStages { return s.last }

// SetFetchDeadline implements runtime.DeadlineSetter: the next Fetch's
// reply is needed by this virtual session time. Clock goroutine only.
func (s *liveSource) SetFetchDeadline(virtualMs float64) { s.nextDeadlineMs = virtualMs }

// consumeDeadline converts the armed virtual deadline into this client's
// wall clock and clears it (the zero Time: none armed). The remaining
// virtual time shrinks to wall time through the replay speed; fetchOnce
// sends what is left of it as the request's budget. Clock goroutine only.
func (s *liveSource) consumeDeadline(nowVirtual float64) time.Time {
	v := s.nextDeadlineMs
	if v <= 0 {
		return time.Time{}
	}
	s.nextDeadlineMs = 0
	return time.Now().Add(time.Duration((v - nowVirtual) / s.speed * float64(time.Millisecond)))
}

// fetchOnce serialises one request/reply exchange on the connection, with
// the budget left until deadline at send time (the zero Time: none).
func (s *liveSource) fetchOnce(pt geom.GridPoint, deadline time.Time) (transport.FrameReply, error) {
	s.connMu.Lock()
	defer s.connMu.Unlock()
	if s.err != nil {
		return transport.FrameReply{}, s.err
	}
	reply, err := s.cl.Fetch(pt, transport.BudgetUs(time.Until(deadline), !deadline.IsZero()))
	if err == nil {
		err = s.refs.Decode(pt, reply)
	}
	if err != nil {
		s.err = err
		return transport.FrameReply{}, err
	}
	return reply, nil
}

// Refs is the client's half of the delta-reference rule: the decoded
// rasters of the points it holds as references (transport.HeldRefs), and
// Decode, which validates each TCP reply against them. The zero value is
// empty and ready to use; a Refs is not safe for concurrent use.
type Refs struct {
	transport.HeldRefs[*img.Gray]
}

// Decode validates a fetched frame by reconstructing it: intra frames
// decode standalone, delta frames decode against the referenced held
// frame. A reference reply (FrameReply.IsReference) is held by the rule
// the server's session applies to the same reply, so this client holds
// exactly the points the server deltas against. A stale-rung reply is a
// neighbour's frame standing in for pt; held under pt it would replace
// pt's exact raster, which the server still deltas against.
func (r *Refs) Decode(pt geom.GridPoint, reply transport.FrameReply) error {
	switch reply.Kind {
	case transport.FrameDelta:
		ref, ok := r.Get(reply.Ref)
		if !ok {
			return fmt.Errorf("frame %v: delta against %v, which this client does not hold", pt, reply.Ref)
		}
		g, err := codec.DeltaDecode(reply.Data, ref)
		if err != nil {
			return fmt.Errorf("frame %v does not delta-decode: %w", pt, err)
		}
		// Delta reconstructions never become references (chaining would
		// compound quantisation drift); the raster is only validation.
		codec.ReleaseGray(g)
	default:
		g, err := codec.Decode(reply.Data)
		if err != nil {
			return fmt.Errorf("frame %v does not decode: %w", pt, err)
		}
		if !reply.IsReference() {
			codec.ReleaseGray(g)
		} else if dropped, ok := r.Hold(pt, g); ok {
			codec.ReleaseGray(dropped) // g again, or the oldest reference
		}
	}
	return nil
}

func (s *liveSource) firstError() error {
	s.connMu.Lock()
	defer s.connMu.Unlock()
	return s.err
}

// ActiveTransfers implements runtime.NetMonitor.
func (s *liveSource) ActiveTransfers() int { return int(s.inflight.Load()) }

// FlowBytes implements runtime.NetMonitor; the live client has one flow.
func (s *liveSource) FlowBytes(int) int64 { return s.bytes.Load() }

// liveFISync synchronises FI over UDP each frame, like the paper's PUN
// path. A lost datagram simply counts as a drop — the next frame resends.
type liveFISync struct {
	clock *runtime.WallClock
	fi    *UDPChannel

	mu sync.Mutex // serialises the UDP socket

	// drops is only touched on the clock goroutine.
	drops int64

	// Observability (nil when not instrumented).
	obsSyncs *obs.Counter
	obsDrops *obs.Counter
}

// Sync implements runtime.FISync.
func (f *liveFISync) Sync(st fisync.State, nowMs float64, done func(readyAtMs float64)) {
	f.clock.IOStarted()
	go func() {
		f.mu.Lock()
		_, err := f.fi.Sync(st, liveFITimeout)
		f.mu.Unlock()
		f.clock.Post(func() {
			f.obsSyncs.Inc()
			if err != nil {
				f.drops++
				f.obsDrops.Inc()
			}
			if done != nil {
				done(f.clock.Now())
			}
		})
	}()
}

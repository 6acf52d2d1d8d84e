package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"coterie/internal/client"
	"coterie/internal/codec"
	"coterie/internal/core"
	"coterie/internal/fisync"
	"coterie/internal/geom"
	"coterie/internal/img"
	"coterie/internal/obs"
	"coterie/internal/trace"
	"coterie/internal/transport"
)

// startLiveServer runs a full live server — frames over TCP, FI sync over
// UDP on the same port — under a cancellable context.
func startLiveServer(t *testing.T) (*Server, string) {
	t.Helper()
	srv := New(poolEnv(t))
	return srv, serveLive(t, srv)
}

// serveLive starts srv the way startLiveServer does and returns its
// address. Tests that Instrument the server construct it themselves and
// call this afterwards: Instrument must precede Serve.
func serveLive(t *testing.T, srv *Server) string {
	t.Helper()
	return serveLiveWrapped(t, srv, nil)
}

// serveLiveWrapped is serveLive with the server's UDP socket passed
// through wrap (nil serves it as is).
func serveLiveWrapped(t *testing.T, srv *Server, wrap func(net.PacketConn) net.PacketConn) string {
	t.Helper()
	srv.DrainTimeout = 2 * time.Second
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	pc, err := net.ListenPacket("udp", addr)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		srv.ServeContext(ctx, ln)
	}()
	served := pc
	if wrap != nil {
		served = wrap(pc)
	}
	go srv.ServeFIUDP(served)
	t.Cleanup(func() {
		cancel()
		pc.Close()
		<-done
	})
	return addr
}

// waitFor polls until cond holds or the deadline passes.
func waitFor(t *testing.T, d time.Duration, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatal("condition not reached in time")
}

// TestLoopbackMatchesSim is the end-to-end check of the runtime split:
// the same pipeline code replays the same movement trace over (a) the
// discrete-event netsim backend and (b) real TCP/UDP loopback sockets,
// and the cache behaviour — the part of the pipeline the transport must
// not perturb — has to agree. Transfer *sizes* are not comparable (the
// simulator models 4K frames, the live server serves real encodes at the
// test resolution), so the comparison is hit ratio and fetch counts;
// live byte counts are checked against the server's own accounting.
func TestLoopbackMatchesSim(t *testing.T) {
	env := poolEnv(t)
	srv, addr := startLiveServer(t)
	tr := trace.Generate(env.Game, 2, 7)

	warmServer(t, srv, tr)

	sim, err := core.RunSession(env, core.SessionConfig{
		System:  core.Coterie,
		Players: 1,
		Seconds: tr.Seconds(),
		Traces:  []*trace.Trace{tr},
	})
	if err != nil {
		t.Fatal(err)
	}

	live, err := client.RunLive(env, addr, tr, 0, client.LiveConfig{
		Speed:        4,
		DecodeFrames: true,
		IdleTimeout:  10 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}

	simHit := sim.Per[0].CacheHitRatio
	liveHit := live.Metrics.CacheHitRatio
	if d := liveHit - simHit; d < -0.2 || d > 0.2 {
		t.Errorf("cache hit ratio diverged: live %.3f vs sim %.3f", liveHit, simHit)
	}
	simIssued := float64(sim.Per[0].PrefetchIssued)
	liveIssued := float64(live.Prefetch.Issued)
	if liveIssued < 0.5*simIssued || liveIssued > 2*simIssued {
		t.Errorf("prefetches issued diverged: live %.0f vs sim %.0f", liveIssued, simIssued)
	}
	if live.Fetches == 0 || live.BytesFetched == 0 {
		t.Fatalf("live session fetched nothing: %+v", live)
	}
	if live.Metrics.Frames == 0 {
		t.Fatal("live session displayed no frames")
	}

	// The server's own accounting must agree with the client's byte and
	// fetch counts exactly: one session, every fetch served over it.
	waitFor(t, 2*time.Second, func() bool {
		_, completed := srv.Sessions()
		return len(completed) == 1
	})
	_, completed := srv.Sessions()
	st := completed[0]
	if st.Err != "" {
		t.Errorf("session ended with error: %s", st.Err)
	}
	if st.FramesServed != live.Fetches {
		t.Errorf("server served %d frames, client fetched %d", st.FramesServed, live.Fetches)
	}
	if st.BytesSent != live.BytesFetched {
		t.Errorf("server sent %d bytes, client counted %d", st.BytesSent, live.BytesFetched)
	}
}

// warmServer prerenders the server across the trace's neighbourhood so
// live fetch latency is lookup-bound, keeping the live tick sequence
// aligned with the simulated one.
func warmServer(t *testing.T, srv *Server, tr *trace.Trace) {
	t.Helper()
	bounds := geom.Rect{MinX: tr.Pos[0].X, MinZ: tr.Pos[0].Z, MaxX: tr.Pos[0].X, MaxZ: tr.Pos[0].Z}
	for _, p := range tr.Pos {
		if p.X < bounds.MinX {
			bounds.MinX = p.X
		}
		if p.Z < bounds.MinZ {
			bounds.MinZ = p.Z
		}
		if p.X > bounds.MaxX {
			bounds.MaxX = p.X
		}
		if p.Z > bounds.MaxZ {
			bounds.MaxZ = p.Z
		}
	}
	// Margin covers the prefetcher's lookahead predictions (a few grid
	// steps) without ballooning the prerender set: the pool grid is 1/32 m,
	// so every 0.25 m of margin is 8 grid steps in each direction.
	bounds.MinX -= 0.25
	bounds.MinZ -= 0.25
	bounds.MaxX += 0.25
	bounds.MaxZ += 0.25
	if _, err := srv.PrerenderRegion(bounds, 1); err != nil {
		t.Fatal(err)
	}
}

// TestLoopbackObsCountersMatchSim runs the same trace through both
// backends with a metrics registry attached to each and asserts the
// shared pipeline instruments report *identical* counts for cache hits,
// prefetches issued/delivered, and frames displayed. This is the
// strongest form of the backend-equivalence claim: with a warmed server
// every fetch completes well inside one vsync interval in both backends,
// so the per-tick cache and prefetch decisions — and therefore the
// counters — must agree exactly, not just within tolerance. A live fetch
// straddling a tick boundary (scheduler hiccup) can legitimately perturb
// one run, so the live side retries a bounded number of times; the
// registry-vs-legacy-stats cross-checks are deterministic and asserted
// on every attempt.
func TestLoopbackObsCountersMatchSim(t *testing.T) {
	env := poolEnv(t)
	srv, addr := startLiveServer(t)
	tr := trace.Generate(env.Game, 2, 7)
	warmServer(t, srv, tr)

	simReg := obs.NewRegistry()
	sim, err := core.RunSession(env, core.SessionConfig{
		System:  core.Coterie,
		Players: 1,
		Seconds: tr.Seconds(),
		Traces:  []*trace.Trace{tr},
		Obs:     simReg,
	})
	if err != nil {
		t.Fatal(err)
	}
	simC := simReg.Snapshot().Counters

	// The sim registry must agree with the result's own accounting: the
	// instruments observe the same events the legacy stats count.
	if got, want := simC["prefetch.issued"], sim.Per[0].PrefetchIssued; got != want {
		t.Errorf("sim registry prefetch.issued = %d, metrics say %d", got, want)
	}
	if got, want := simC["frames.displayed"], sim.Per[0].Frames; got != want {
		t.Errorf("sim registry frames.displayed = %d, metrics say %d", got, want)
	}

	compare := []string{
		"cache.hits",
		"cache.misses",
		"prefetch.issued",
		"prefetch.delivered",
		"frames.displayed",
	}
	const attempts = 3
	for attempt := 1; ; attempt++ {
		liveReg := obs.NewRegistry()
		live, err := client.RunLive(env, addr, tr, 0, client.LiveConfig{
			Speed:        1, // real time: virtual latencies closest to the modelled medium
			DecodeFrames: true,
			IdleTimeout:  10 * time.Second,
			Obs:          liveReg,
		})
		if err != nil {
			t.Fatal(err)
		}
		liveC := liveReg.Snapshot().Counters

		// Deterministic on every attempt: the live registry mirrors the
		// live report's legacy counters exactly.
		if got, want := liveC["cache.hits"], live.Cache.Hits; got != want {
			t.Fatalf("live registry cache.hits = %d, report says %d", got, want)
		}
		if got, want := liveC["prefetch.issued"], live.Prefetch.Issued; got != want {
			t.Fatalf("live registry prefetch.issued = %d, report says %d", got, want)
		}
		if got, want := liveC["prefetch.delivered"], live.Prefetch.Delivered; got != want {
			t.Fatalf("live registry prefetch.delivered = %d, report says %d", got, want)
		}
		if got, want := liveC["frames.displayed"], live.Metrics.Frames; got != want {
			t.Fatalf("live registry frames.displayed = %d, report says %d", got, want)
		}
		// The trace ring saw every displayed frame.
		if got := liveReg.Trace().Recorded(); got != uint64(live.Metrics.Frames) {
			t.Fatalf("trace ring recorded %d spans, %d frames displayed", got, live.Metrics.Frames)
		}

		var diverged []string
		for _, name := range compare {
			if liveC[name] != simC[name] {
				diverged = append(diverged,
					name+": live "+itoa(liveC[name])+" vs sim "+itoa(simC[name]))
			}
		}
		if len(diverged) == 0 {
			break
		}
		if attempt == attempts {
			t.Fatalf("counters diverged after %d attempts: %v", attempts, diverged)
		}
		t.Logf("attempt %d diverged (%v), retrying", attempt, diverged)
	}
}

func itoa(v int64) string { return fmt.Sprintf("%d", v) }

// TestLoopbackTraceDecompositionAndQoE is the end-to-end check of span
// schema v2: both backends replay the same trace with a registry attached,
// and every recorded miss span's decomposition
// (NetMs+QueueMs+RenderMs+EncodeMs) must account for the FetchMs the
// display waited. The stage sum is the delivering fetch's full round
// trip; FetchMs clocks from the frame start, but the display path only
// demands the frame (pf.Ensure) once the frame's parallel tasks join, at
// most JoinMs later — so an emergency fetch's round trip covers
// FetchMs−JoinMs, and a fetch already in flight covers more. Cache-hit
// spans carry no stages at all. The /qoe endpoint is then
// scraped from an AdminMux over each registry and the two snapshots must
// agree on the trace: matching schema, deterministic against ComputeQoE,
// and consistent QoE between the backends within the same tolerances the
// sim-vs-live equivalence tests use.
func TestLoopbackTraceDecompositionAndQoE(t *testing.T) {
	env := poolEnv(t)
	srv, addr := startLiveServer(t)
	tr := trace.Generate(env.Game, 2, 7)
	warmServer(t, srv, tr)

	simReg := obs.NewRegistry()
	if _, err := core.RunSession(env, core.SessionConfig{
		System:  core.Coterie,
		Players: 1,
		Seconds: tr.Seconds(),
		Traces:  []*trace.Trace{tr},
		Obs:     simReg,
	}); err != nil {
		t.Fatal(err)
	}

	// checkSpans validates the decomposition invariants over one backend's
	// recorded spans and reports how many miss spans carried stages (so the
	// assertions cannot pass vacuously).
	checkSpans := func(name string, reg *obs.Registry, tolMs float64) (staged int) {
		ring := reg.Trace()
		spans := ring.Recent(ring.Len())
		if len(spans) == 0 {
			t.Fatalf("%s: no spans recorded", name)
		}
		for _, sp := range spans {
			sum := sp.NetMs + sp.QueueMs + sp.RenderMs + sp.EncodeMs
			if sp.CacheHit {
				if sum != 0 {
					t.Errorf("%s: cache-hit span %d carries stages: %+v", name, sp.Frame, sp)
				}
				continue
			}
			if sp.NetMs < 0 || sp.QueueMs < 0 || sp.RenderMs < 0 || sp.EncodeMs < 0 {
				t.Errorf("%s: negative stage in span %d: %+v", name, sp.Frame, sp)
			}
			if sum == 0 {
				continue // miss delivered before instrumented stages existed
			}
			staged++
			if floor := sp.FetchMs - sp.JoinMs - tolMs; sum < floor {
				t.Errorf("%s: span %d stages sum %.3f ms < FetchMs %.3f − JoinMs %.3f ms (tol %.3f)",
					name, sp.Frame, sum, sp.FetchMs, sp.JoinMs, tolMs)
			}
		}
		return staged
	}
	// The sim is exact: an emergency fetch issues the moment the join
	// fires, so the stage sum equals FetchMs−JoinMs to float precision;
	// prefetch-attached fetches only make the sum larger. The live side
	// adds goroutine hand-off and wall-clock sampling noise between the
	// pipeline's view of the fetch and the transport's, so it gets a few
	// milliseconds.
	if n := checkSpans("sim", simReg, 1e-6); n == 0 {
		t.Error("sim trace recorded no staged miss spans")
	}

	// Scrape /qoe from an admin mux over each registry, windowed over the
	// whole session so both cover the full trace; the snapshot must be
	// non-empty and in range.
	scrape := func(name string, reg *obs.Registry) obs.QoESnapshot {
		s := httptest.NewServer(obs.AdminMux(reg))
		defer s.Close()
		res, err := s.Client().Get(s.URL + "/qoe?window=10000")
		if err != nil {
			t.Fatal(err)
		}
		defer res.Body.Close()
		var q obs.QoESnapshot
		if err := json.NewDecoder(res.Body).Decode(&q); err != nil {
			t.Fatal(err)
		}
		if q.Spans == 0 || q.All.Frames == 0 {
			t.Fatalf("%s /qoe snapshot empty: %+v", name, q)
		}
		if q.All.WindowFPS <= 0 || q.All.WindowFPS > 200 {
			t.Errorf("%s window fps insane: %+v", name, q.All)
		}
		if q.All.MissedVsyncRatio < 0 || q.All.MissedVsyncRatio > 1 {
			t.Errorf("%s missed-vsync ratio out of range: %+v", name, q.All)
		}
		return q
	}
	simQ := scrape("sim", simReg)

	// The endpoint must be a pure function of the recorded spans.
	ring := simReg.Trace()
	direct := obs.ComputeQoE(ring.Recent(ring.Len()), obs.QoEConfig{WindowMs: 10000, Player: -1})
	if simQ.All != direct.All || simQ.Spans != direct.Spans {
		t.Errorf("/qoe diverged from ComputeQoE on the same trace:\n%+v\n%+v", simQ.All, direct.All)
	}

	// Backend agreement on the same trace, with the tolerances the
	// equivalence tests use (exact equality is covered by
	// TestLoopbackObsCountersMatchSim). The live side's QoE is wall-clock
	// derived, so a host stall mid-session can legitimately perturb one
	// run: like that test, the live side retries a bounded number of
	// times, while the span invariants and the snapshot's range checks are
	// asserted on every attempt.
	const attempts = 3
	for attempt := 1; ; attempt++ {
		liveReg := obs.NewRegistry()
		if _, err := client.RunLive(env, addr, tr, 0, client.LiveConfig{
			Speed:        4,
			DecodeFrames: true,
			IdleTimeout:  10 * time.Second,
			Obs:          liveReg,
		}); err != nil {
			t.Fatal(err)
		}
		if n := checkSpans("live", liveReg, 5.0); n == 0 {
			t.Error("live trace recorded no staged miss spans")
		}
		liveQ := scrape("live", liveReg)

		var diverged []string
		if d := liveQ.All.CacheHitRate - simQ.All.CacheHitRate; d < -0.2 || d > 0.2 {
			diverged = append(diverged, fmt.Sprintf("cache hit rate: live %.3f vs sim %.3f", liveQ.All.CacheHitRate, simQ.All.CacheHitRate))
		}
		if lo, hi := 0.75*simQ.All.WindowFPS, 1.25*simQ.All.WindowFPS; liveQ.All.WindowFPS < lo || liveQ.All.WindowFPS > hi {
			diverged = append(diverged, fmt.Sprintf("window fps: live %.1f vs sim %.1f", liveQ.All.WindowFPS, simQ.All.WindowFPS))
		}
		if d := liveQ.All.MissedVsyncRatio - simQ.All.MissedVsyncRatio; d < -0.3 || d > 0.3 {
			diverged = append(diverged, fmt.Sprintf("missed-vsync: live %.3f vs sim %.3f", liveQ.All.MissedVsyncRatio, simQ.All.MissedVsyncRatio))
		}
		if len(diverged) == 0 {
			break
		}
		if attempt == attempts {
			t.Fatalf("QoE diverged after %d attempts: %v", attempts, diverged)
		}
		t.Logf("attempt %d diverged (%v), retrying", attempt, diverged)
	}
}

// TestConcurrentFrameForSingleflight drives N concurrent fetches of one
// cold grid point through the singleflight path: exactly one render, one
// shared buffer.
func TestConcurrentFrameForSingleflight(t *testing.T) {
	srv := New(poolEnv(t))
	pt := srv.env.Game.Scene.Grid.Snap(srv.env.Game.Spawn)

	const n = 64
	var (
		start   = make(chan struct{})
		wg      sync.WaitGroup
		mu      sync.Mutex
		buffers = make(map[*byte]int)
	)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			data, err := srv.FrameFor(pt)
			if err != nil {
				t.Error(err)
				return
			}
			mu.Lock()
			buffers[&data[0]]++
			mu.Unlock()
		}()
	}
	close(start)
	wg.Wait()

	if len(buffers) != 1 {
		t.Fatalf("%d distinct buffers returned, want 1", len(buffers))
	}
	if _, rendered := srv.Stats(); rendered != 1 {
		t.Fatalf("rendered %d times under concurrency, want 1", rendered)
	}
}

// dialRaw opens a raw TCP connection and completes the hello exchange.
func dialRaw(t *testing.T, addr string) net.Conn {
	t.Helper()
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { nc.Close() })
	c := transport.NewConn(nc)
	hello := transport.EncodeHello(transport.Hello{Player: 9, Game: "pool"})
	if err := c.Send(transport.Message{Type: transport.MsgHello, Payload: hello}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Recv(); err != nil {
		t.Fatal(err)
	}
	return nc
}

// expectSessionClose asserts the server tears the connection down (rather
// than hanging) after the bad bytes already written to nc.
func expectSessionClose(t *testing.T, nc net.Conn) {
	t.Helper()
	nc.SetReadDeadline(time.Now().Add(5 * time.Second))
	buf := make([]byte, 256)
	for {
		if _, err := nc.Read(buf); err != nil {
			var ne net.Error
			if errors.As(err, &ne) && ne.Timeout() {
				t.Fatal("server kept the session open")
			}
			return // EOF or reset: session closed cleanly
		}
	}
}

func TestSessionLoopRejectsMalformedInput(t *testing.T) {
	_, addr := startLiveServer(t)

	t.Run("unknown type", func(t *testing.T) {
		// 8 and 9 were the removed cluster's peer frame request and reply;
		// a well-formed frame request under any unknown type ends the session.
		payload := transport.EncodeFrameRequest(transport.FrameRequest{Player: 9, ReqID: 1})
		for _, typ := range []byte{8, 9, 0x7F} {
			nc := dialRaw(t, addr)
			nc.Write(append([]byte{typ, 0, 0, 0, byte(len(payload))}, payload...))
			expectSessionClose(t, nc)
		}
	})
	typ := transport.MsgFrameRequest
	t.Run("oversized length", func(t *testing.T) {
		nc := dialRaw(t, addr)
		nc.Write([]byte{byte(typ), 0xFF, 0xFF, 0xFF, 0xFF})
		expectSessionClose(t, nc)
	})
	t.Run("truncated message", func(t *testing.T) {
		nc := dialRaw(t, addr)
		// Header promises 9 payload bytes; send 2 and half-close.
		nc.Write([]byte{byte(typ), 0, 0, 0, 9, 1, 2})
		if tc, ok := nc.(*net.TCPConn); ok {
			tc.CloseWrite()
		}
		expectSessionClose(t, nc)
	})
	t.Run("bad frame request payload", func(t *testing.T) {
		nc := dialRaw(t, addr)
		nc.Write([]byte{byte(typ), 0, 0, 0, 1, 42})
		expectSessionClose(t, nc)
	})
	t.Run("short frame request payload", func(t *testing.T) {
		// One byte short of the fixed request size.
		nc := dialRaw(t, addr)
		payload := transport.EncodeFrameRequest(transport.FrameRequest{Player: 9, ReqID: 1})
		payload = payload[:len(payload)-1]
		nc.Write(append([]byte{byte(typ), 0, 0, 0, byte(len(payload))}, payload...))
		expectSessionClose(t, nc)
	})
	t.Run("retired FI sync over TCP", func(t *testing.T) {
		// FI sync is UDP-only; a well-formed MsgFISync (its wire number
		// stays reserved) is an unexpected message and ends the session.
		nc := dialRaw(t, addr)
		state := fisync.State{Player: 9, Seq: 1}.Encode(nil)
		nc.Write(append([]byte{byte(transport.MsgFISync), 0, 0, 0, byte(len(state))}, state...))
		expectSessionClose(t, nc)
	})
	t.Run("retired evict notice over TCP", func(t *testing.T) {
		// Both ends hold delta references by one rule, so nothing reports
		// an eviction; a MsgEvictNotice naming one point (its wire number
		// stays reserved) is an unexpected message and ends the session.
		nc := dialRaw(t, addr)
		nc.Write([]byte{byte(transport.MsgEvictNotice), 0, 0, 0, 8, 0, 0, 0, 1, 0, 0, 0, 2})
		expectSessionClose(t, nc)
	})
}

func TestServeContextDrainsOnCancel(t *testing.T) {
	srv := New(poolEnv(t))
	srv.DrainTimeout = 50 * time.Millisecond
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	served := make(chan error, 1)
	go func() { served <- srv.ServeContext(ctx, ln) }()

	cl, err := client.Dial(ln.Addr().String(), "pool", 1)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	pt := srv.env.Game.Scene.Grid.Snap(srv.env.Game.Spawn)
	if _, err := cl.Fetch(pt, 0); err != nil {
		t.Fatal(err)
	}

	cancel()
	select {
	case err := <-served:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("ServeContext returned %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("ServeContext did not drain after cancel")
	}
	// The idle session was force-closed by the drain timeout.
	if _, err := cl.Fetch(pt, 0); err == nil {
		t.Fatal("session survived shutdown")
	}
}

func TestSessionStatsRecorded(t *testing.T) {
	srv, addr := startLiveServer(t)
	cl, err := client.Dial(addr, "pool", 3)
	if err != nil {
		t.Fatal(err)
	}
	grid := srv.env.Game.Scene.Grid
	for i := 0; i < 2; i++ {
		if _, err := cl.Fetch(grid.Snap(geom.V2(2, float64(2+i))), 0); err != nil {
			t.Fatal(err)
		}
	}
	cl.Close() // sends MsgBye: a clean teardown, not an error

	waitFor(t, 2*time.Second, func() bool {
		_, completed := srv.Sessions()
		return len(completed) == 1
	})
	_, completed := srv.Sessions()
	st := completed[0]
	if st.Err != "" {
		t.Errorf("clean close recorded error %q", st.Err)
	}
	if st.Player != 3 || st.Game != "pool" {
		t.Errorf("session identity %+v", st)
	}
	if st.FramesServed != 2 || st.BytesSent == 0 {
		t.Errorf("session accounting %+v", st)
	}
	if active, _ := srv.Sessions(); active != 0 {
		t.Errorf("%d sessions still active", active)
	}
}

// TestLoopbackStoreMetrics is the e2e check of the frame store's
// instruments: an instrumented live server under a tight byte budget
// serves real TCP fetches, and a /metrics scrape of its registry must
// expose the store's residency (server.store_bytes) and its evictions
// (server.evictions) with values consistent with the store's own
// accounting.
func TestLoopbackStoreMetrics(t *testing.T) {
	env := poolEnv(t)
	reg := obs.NewRegistry()
	srv := New(env)
	srv.Instrument(reg)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go srv.Serve(ln)

	cl, err := client.Dial(ln.Addr().String(), "pool", 1)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	// Budget two frames, then fetch a row of distinct points so the store
	// must evict, and re-fetch the last point so the hit path (LRU touch
	// under the store lock) runs too.
	spawn := env.Game.Scene.Grid.Snap(env.Game.Spawn)
	first, err := cl.Fetch(spawn, 0)
	if err != nil {
		t.Fatal(err)
	}
	srv.SetStoreBudget(int64(2*len(first.Data) + len(first.Data)/2))
	last := spawn
	for i := 1; i <= 6; i++ {
		last = geom.GridPoint{I: spawn.I + i, J: spawn.J}
		if _, err := cl.Fetch(last, 0); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := cl.Fetch(last, 0); err != nil {
		t.Fatal(err)
	}

	s := httptest.NewServer(obs.AdminMux(reg))
	defer s.Close()
	res, err := s.Client().Get(s.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer res.Body.Close()
	var snap obs.Snapshot
	if err := json.NewDecoder(res.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}

	bytes, evictions, frames := srv.StoreStats()
	if g, ok := snap.Gauges["server.store_bytes"]; !ok || g != bytes || g <= 0 {
		t.Errorf("store_bytes gauge = %d (present %v), store reports %d", g, ok, bytes)
	}
	if c, ok := snap.Counters["server.evictions"]; !ok || c != evictions || c == 0 {
		t.Errorf("evictions counter = %d (present %v), store reports %d", c, ok, evictions)
	}
	if bytes > srv.store.Budget() {
		t.Errorf("store %d bytes exceeds budget %d", bytes, srv.store.Budget())
	}
	if frames == 0 {
		t.Error("store empty after fetches")
	}
	if snap.Counters["server.frame_store_hits"] == 0 {
		t.Error("re-fetch of a resident point did not count as a store hit")
	}
}

// TestSchedulerByteIdentityUnloaded pins the staged pipeline's core
// invariant: with nobody else on the server, the EDF scheduler and the
// degrade ladder must be invisible — every reply is rung exact, nothing is
// shed or served stale, and the bytes are canonical, judged against a
// reference built from the renderer and codec alone (see canonical). The
// sim backend (the same pipeline, whose modelled server takes no
// deadlines) is checked for determinism, and the full live runtime pipeline
// is replayed against the server to assert it degrades no frame when
// unloaded.
func TestSchedulerByteIdentityUnloaded(t *testing.T) {
	env := poolEnv(t)
	tr := trace.Generate(env.Game, 2, 11)

	srv := New(env)
	reg := obs.NewRegistry()
	srv.Instrument(reg)
	addr := serveLive(t, srv)
	warmServer(t, srv, tr)

	// Raw session: the trace's walk, alternating deadline-free and
	// budgeted fetches.
	cl, err := client.Dial(addr, "pool", 1)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	canon := newCanonical(env)
	grid := env.Game.Scene.Grid
	stride := len(tr.Pos)/40 + 1
	intra, delta := 0, 0
	for i := 0; i < len(tr.Pos); i += stride {
		pt := grid.Snap(tr.Pos[i])
		var budget uint32
		if i%2 == 0 {
			budget = 100_000 // µs
		}
		r, err := cl.Fetch(pt, budget)
		if err != nil {
			t.Fatalf("fetch %v: %v", pt, err)
		}
		if r.Rung != transport.RungExact {
			t.Fatalf("point %v: unloaded serve degraded to rung %d", pt, r.Rung)
		}
		switch r.Kind {
		case transport.FrameIntra:
			intra++
			canon.checkIntra(t, pt, r.Data)
		case transport.FrameDelta:
			delta++
			canon.checkDelta(t, pt, r.Ref, r.Data)
		default:
			t.Fatalf("point %v: unexpected frame kind %d", pt, r.Kind)
		}
	}
	if intra == 0 || delta == 0 {
		t.Errorf("walk served %d intra and %d delta replies; both encodings must be exercised", intra, delta)
	}
	if n := reg.Counter("server.degrade_stale").Value() +
		reg.Counter("server.sched.sheds").Value(); n != 0 {
		t.Errorf("unloaded raw session took %d degrade/shed actions", n)
	}

	// Sim backend: the shared pipeline must stay deterministic — two
	// identical runs, identical results.
	runSim := func() *core.Result {
		sim, err := core.RunSession(env, core.SessionConfig{
			System:  core.Coterie,
			Players: 1,
			Seconds: tr.Seconds(),
			Traces:  []*trace.Trace{tr},
		})
		if err != nil {
			t.Fatal(err)
		}
		return sim
	}
	sim1, sim2 := runSim(), runSim()
	if sim1.Per[0].Frames != sim2.Per[0].Frames ||
		sim1.Per[0].CacheHitRatio != sim2.Per[0].CacheHitRatio ||
		sim1.Per[0].PrefetchIssued != sim2.Per[0].PrefetchIssued {
		t.Errorf("sim backend nondeterministic: %+v vs %+v",
			sim1.Per[0], sim2.Per[0])
	}

	// Full live pipeline: same trace, and a warmed, unloaded server may not
	// degrade a frame.
	live, err := client.RunLive(env, addr, tr, 0, client.LiveConfig{
		Speed:        4,
		DecodeFrames: true,
		IdleTimeout:  10 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	if live.Metrics.Frames == 0 || live.Fetches == 0 {
		t.Fatalf("live session went nowhere: %+v", live)
	}
	if d := live.Metrics.CacheHitRatio - sim1.Per[0].CacheHitRatio; d < -0.2 || d > 0.2 {
		t.Errorf("cache hit ratio diverged from sim: %.3f vs %.3f",
			live.Metrics.CacheHitRatio, sim1.Per[0].CacheHitRatio)
	}
	if n := reg.Counter("server.degrade_stale").Value() +
		reg.Counter("server.sched.sheds").Value(); n != 0 {
		t.Errorf("unloaded live pipeline took %d degrade/shed actions", n)
	}
}

// canonical is the independent reference the byte-identity tests judge
// served frames against, built from the renderer and the codec alone: a
// grid point's frame is its exact far-BE ray-cast encoded at the
// environment's CRF, and a delta frame is DeltaEncode between two such
// frames' reconstructions. Memoised per point; single-goroutine use.
type canonical struct {
	env    *core.Env
	frames map[geom.GridPoint][]byte
	recons map[geom.GridPoint]*img.Gray
}

func newCanonical(env *core.Env) *canonical {
	return &canonical{
		env:    env,
		frames: make(map[geom.GridPoint][]byte),
		recons: make(map[geom.GridPoint]*img.Gray),
	}
}

// frame returns pt's canonical intra bytes.
func (c *canonical) frame(t *testing.T, pt geom.GridPoint) []byte {
	t.Helper()
	if data, ok := c.frames[pt]; ok {
		return data
	}
	scene := c.env.Game.Scene
	pos := scene.Grid.Pos(pt)
	leaf := c.env.Map.LeafAt(pos)
	if leaf == nil {
		t.Fatalf("no leaf region at %v", pt)
	}
	pano := c.env.Renderer.Panorama(scene.EyeAt(pos), leaf.Radius, math.Inf(1), nil)
	data := codec.Encode(pano, c.env.CRF)
	c.frames[pt] = data
	return data
}

// recon returns what a client that decoded pt's canonical frame holds.
func (c *canonical) recon(t *testing.T, pt geom.GridPoint) *img.Gray {
	t.Helper()
	if g, ok := c.recons[pt]; ok {
		return g
	}
	g, err := codec.Decode(c.frame(t, pt))
	if err != nil {
		t.Fatalf("canonical frame %v does not decode: %v", pt, err)
	}
	c.recons[pt] = g
	return g
}

// checkIntra asserts data is pt's canonical intra frame, byte for byte.
func (c *canonical) checkIntra(t *testing.T, pt geom.GridPoint, data []byte) {
	t.Helper()
	if want := c.frame(t, pt); !bytesEqual(data, want) {
		t.Errorf("point %v: served intra bytes (%d) differ from the canonical encode (%d)", pt, len(data), len(want))
	}
}

// checkDelta asserts data is pt's frame delta-coded against ref: byte for
// byte the canonical delta, and decoding against ref's reconstruction to
// pt's own within the delta path's quantisation error.
func (c *canonical) checkDelta(t *testing.T, pt, ref geom.GridPoint, data []byte) {
	t.Helper()
	cur, refRecon := c.recon(t, pt), c.recon(t, ref)
	if want := codec.DeltaEncode(cur, refRecon, c.env.CRF); !bytesEqual(data, want) {
		t.Errorf("point %v: served delta bytes (%d) differ from the canonical delta against %v (%d)", pt, len(data), ref, len(want))
	}
	got, err := codec.DeltaDecode(data, refRecon)
	if err != nil {
		t.Errorf("point %v: delta against %v does not decode: %v", pt, ref, err)
		return
	}
	defer codec.ReleaseGray(got)
	if mad, _ := img.MeanAbsDiff(got, cur); mad > 3 {
		t.Errorf("point %v: delta against %v decodes MAD %.2f away from the point's own reconstruction", pt, ref, mad)
	}
}

// checkSink judges a frame a client.LiveConfig.FrameSink observed, which carries
// no reply context: intra frames as checkIntra, delta frames as checkDelta
// against whichever of the points in held (those the session received
// intra) the delta was coded from.
func (c *canonical) checkSink(t *testing.T, pt geom.GridPoint, data []byte, held map[geom.GridPoint]bool) {
	t.Helper()
	switch codec.Kind(data) {
	case codec.KindIntra:
		c.checkIntra(t, pt, data)
	case codec.KindDelta:
		for ref := range held {
			if bytesEqual(data, codec.DeltaEncode(c.recon(t, pt), c.recon(t, ref), c.env.CRF)) {
				c.checkDelta(t, pt, ref, data)
				return
			}
		}
		t.Errorf("point %v: delta frame is not the canonical delta against any of the %d frames the session holds", pt, len(held))
	default:
		t.Errorf("point %v: unclassifiable frame (%d bytes)", pt, len(data))
	}
}

// bytesEqual avoids importing bytes solely for one comparison.
func bytesEqual(a, b []byte) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

package server

import (
	"context"
	"net"
	"sync"
	"testing"
	"time"

	"coterie/internal/cluster"
	"coterie/internal/geom"
	"coterie/internal/obs"
	"coterie/internal/transport"
)

// clusterNode is one in-process member of a loopback cluster.
type clusterNode struct {
	srv  *Server
	cl   *cluster.Cluster
	reg  *obs.Registry
	addr string
	stop func()
}

// startCluster runs n live servers on loopback listeners joined into one
// static cluster, each in the production configuration: the byte-identity
// assertions lean on a frame being a pure function of its grid point on
// every node. The health loop is not started: down-marking is purely
// passive (fetch failures), which keeps the tests deterministic.
func startCluster(t *testing.T, n int) []*clusterNode {
	t.Helper()
	env := poolEnv(t)
	lns := make([]net.Listener, n)
	addrs := make([]string, n)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lns[i] = ln
		addrs[i] = ln.Addr().String()
	}
	nodes := make([]*clusterNode, n)
	for i := range nodes {
		srv := New(env)
		srv.DrainTimeout = 200 * time.Millisecond
		reg := obs.NewRegistry()
		srv.Instrument(reg)
		cl, err := cluster.New(cluster.Config{
			Self:         addrs[i],
			Nodes:        addrs,
			Game:         env.Game.Spec.Name,
			FetchTimeout: 2 * time.Second,
		})
		if err != nil {
			t.Fatal(err)
		}
		cl.Instrument(reg)
		srv.SetCluster(cl)
		ctx, cancel := context.WithCancel(context.Background())
		done := make(chan struct{})
		ln := lns[i]
		go func() {
			defer close(done)
			srv.ServeContext(ctx, ln)
		}()
		stopped := false
		node := &clusterNode{srv: srv, cl: cl, reg: reg, addr: addrs[i]}
		node.stop = func() {
			if stopped {
				return
			}
			stopped = true
			cancel()
			<-done
			cl.Close()
		}
		nodes[i] = node
		t.Cleanup(node.stop)
	}
	return nodes
}

// pointsOwnedBy returns up to max in-grid points owned by addr, scanning
// from the spawn outward so every point is renderable.
func pointsOwnedBy(t *testing.T, cl *cluster.Cluster, addr string, max int) []geom.GridPoint {
	t.Helper()
	env := poolEnv(t)
	grid := env.Game.Scene.Grid
	spawn := grid.Snap(env.Game.Spawn)
	var pts []geom.GridPoint
	seen := map[geom.GridPoint]bool{}
	for d := 0; d < 40 && len(pts) < max; d++ {
		for di := -d; di <= d && len(pts) < max; di++ {
			for _, dj := range []int{-d, d} {
				pt := geom.GridPoint{I: spawn.I + di, J: spawn.J + dj}
				if seen[pt] {
					continue
				}
				seen[pt] = true
				if grid.In(pt) && cl.Owner(pt) == addr {
					pts = append(pts, pt)
					if len(pts) >= max {
						break
					}
				}
			}
		}
	}
	if len(pts) == 0 {
		t.Fatalf("no in-grid points owned by %s near spawn", addr)
	}
	return pts
}

// TestClusterPeerFetchByteIdentical: a frame served by a non-owner via
// the peer hop must be byte-for-byte the owner's frame, the reply must
// be tagged OriginPeer, and the fetched bytes must enter the non-owner's
// store (read-through replication: the re-request is a local hit).
func TestClusterPeerFetchByteIdentical(t *testing.T) {
	nodes := startCluster(t, 2)
	a, b := nodes[0], nodes[1]

	game := poolEnv(t).Game.Spec.Name
	ca, err := Dial(a.addr, game, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer ca.Close()
	cb, err := Dial(b.addr, game, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer cb.Close()

	for _, pt := range pointsOwnedBy(t, a.cl, b.addr, 3) {
		// Non-owner serve: A proxies to B.
		ra, _, _, err := ca.FetchTraced(pt)
		if err != nil {
			t.Fatalf("fetch %v via non-owner: %v", pt, err)
		}
		if ra.Origin != transport.OriginPeer {
			t.Errorf("point %v: origin %d, want OriginPeer", pt, ra.Origin)
		}
		// Owner serve of the same point (store hit on B now).
		rb, _, _, err := cb.FetchTraced(pt)
		if err != nil {
			t.Fatalf("fetch %v via owner: %v", pt, err)
		}
		if rb.Origin != transport.OriginLocal {
			t.Errorf("point %v: owner origin %d, want OriginLocal", pt, rb.Origin)
		}
		da, err := decodeServed(ra, nil)
		if err != nil {
			t.Fatal(err)
		}
		db, err := decodeServed(rb, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !bytesEqual(da, db) {
			t.Errorf("point %v: peer-fetched frame differs from owner-rendered frame", pt)
		}
		// Read-through replication: the same request on A is now a local
		// store hit with the same bytes.
		ra2, _, _, err := ca.FetchTraced(pt)
		if err != nil {
			t.Fatal(err)
		}
		if ra2.Origin != transport.OriginLocal {
			t.Errorf("point %v: replicated re-request origin %d, want OriginLocal", pt, ra2.Origin)
		}
	}

	// The peer traffic is visible on both sides' instruments.
	dumpA, dumpB := a.reg.Snapshot(), b.reg.Snapshot()
	if dumpA.Counters["server.peer_frames"] == 0 {
		t.Error("non-owner recorded no server.peer_frames")
	}
	if dumpA.Counters["cluster.peer_fetches"] == 0 {
		t.Error("non-owner recorded no cluster.peer_fetches")
	}
	if dumpB.Counters["server.peer_frames_served"] == 0 {
		t.Error("owner recorded no server.peer_frames_served")
	}
}

// decodeServed normalises a reply for comparison: replies are always
// intra in these tests (fresh sessions, distinct points), so the served
// bytes compare directly; a delta reply would need its reference.
func decodeServed(r transport.FrameReply, _ []byte) ([]byte, error) {
	return r.Data, nil
}

// TestClusterFailoverSurvivesNodeStop: after the owner stops, a session
// on the surviving node keeps getting frames — re-rendered locally,
// byte-identical to what the owner served, tagged OriginFailover and
// counted.
func TestClusterFailoverSurvivesNodeStop(t *testing.T) {
	nodes := startCluster(t, 2)
	a, b := nodes[0], nodes[1]
	game := poolEnv(t).Game.Spec.Name

	bPts := pointsOwnedBy(t, a.cl, b.addr, 2)
	warm, cold := bPts[0], bPts[1]

	// The owner renders warm pre-stop: its bytes are the reference the
	// failover render must reproduce.
	cb, err := Dial(b.addr, game, 2)
	if err != nil {
		t.Fatal(err)
	}
	rb, _, _, err := cb.FetchTraced(warm)
	if err != nil {
		t.Fatal(err)
	}
	ownerBytes := append([]byte(nil), rb.Data...)
	cb.Close()

	b.stop()

	ca, err := Dial(a.addr, game, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer ca.Close()

	// First post-stop fetch: the hop fails (dead peer), A re-renders
	// locally and the session survives.
	ra, _, _, err := ca.FetchTraced(warm)
	if err != nil {
		t.Fatalf("session did not survive owner stop: %v", err)
	}
	if ra.Origin != transport.OriginFailover {
		t.Errorf("post-stop origin %d, want OriginFailover", ra.Origin)
	}
	if !bytesEqual(ra.Data, ownerBytes) {
		t.Error("failover re-render differs from the owner's render")
	}
	// Second remotely-owned point: the peer is now marked down, so the
	// hop is skipped outright — still a failover serve, still counted.
	ra2, _, _, err := ca.FetchTraced(cold)
	if err != nil {
		t.Fatalf("second post-stop fetch: %v", err)
	}
	if ra2.Origin != transport.OriginFailover {
		t.Errorf("down-peer origin %d, want OriginFailover", ra2.Origin)
	}
	if n := a.reg.Snapshot().Counters["server.peer_failovers"]; n < 2 {
		t.Errorf("server.peer_failovers = %d, want >= 2", n)
	}
}

// TestClusterTraceIDPropagation: a peer-served frame's distributed trace
// id — derived from the client's player and request id — must appear on
// BOTH nodes' trace rings: the proxying node records the hop span
// (Hop 1), the owner records the serve span (Hop 2), and the hop span's
// wall duration decomposes exactly into HopMs plus the owner's echoed
// stages.
func TestClusterTraceIDPropagation(t *testing.T) {
	nodes := startCluster(t, 2)
	a, b := nodes[0], nodes[1]
	game := poolEnv(t).Game.Spec.Name

	ca, err := Dial(a.addr, game, 7)
	if err != nil {
		t.Fatal(err)
	}
	defer ca.Close()

	pt := pointsOwnedBy(t, a.cl, b.addr, 1)[0]
	reply, _, _, err := ca.FetchTraced(pt)
	if err != nil {
		t.Fatal(err)
	}
	if reply.Origin != transport.OriginPeer {
		t.Fatalf("origin %d, want OriginPeer", reply.Origin)
	}
	id := obs.TraceID(ca.Player, reply.ReqID)
	if id == 0 {
		t.Fatal("trace id is 0")
	}

	hopSpans := a.reg.Trace().ForTrace(id)
	if len(hopSpans) != 1 {
		t.Fatalf("proxy node recorded %d spans for trace %d, want 1", len(hopSpans), id)
	}
	hop := hopSpans[0]
	if hop.Hop != 1 {
		t.Errorf("proxy span hop = %d, want 1", hop.Hop)
	}
	if hop.Player != 7 {
		t.Errorf("proxy span player = %d, want 7", hop.Player)
	}
	if hop.Origin != uint8(transport.OriginPeer) {
		t.Errorf("proxy span origin = %d, want OriginPeer", hop.Origin)
	}
	// The hop span's wall time decomposes exactly: HopMs is defined as the
	// proxy-side wall duration minus the owner's echoed stages (floored at
	// zero for clock jitter), so the identity reads as a sum.
	if hop.HopMs < 0 {
		t.Errorf("proxy span HopMs = %v, negative", hop.HopMs)
	}
	sum := hop.HopMs + hop.QueueMs + hop.RenderMs + hop.EncodeMs
	if diff := sum - hop.FetchMs; diff > 1e-6 || diff < -1e-6 {
		t.Errorf("hop decomposition %.6f != hop wall %.6f (Hop %.3f Queue %.3f Render %.3f Encode %.3f)",
			sum, hop.FetchMs, hop.HopMs, hop.QueueMs, hop.RenderMs, hop.EncodeMs)
	}

	serveSpans := b.reg.Trace().ForTrace(id)
	if len(serveSpans) != 1 {
		t.Fatalf("owner node recorded %d spans for trace %d, want 1", len(serveSpans), id)
	}
	serve := serveSpans[0]
	if serve.Hop != 2 {
		t.Errorf("owner span hop = %d, want 2", serve.Hop)
	}
	if serve.Player != 7 {
		t.Errorf("owner span player = %d, want 7 (request context forwarded verbatim)", serve.Player)
	}
	if serve.RenderMs <= 0 {
		t.Errorf("owner span has no render time: %+v", serve)
	}
	// The owner's echoed stages are the hop span's pass-through: what A
	// credited to queue/render/encode is exactly what B measured.
	if serve.RenderMs != hop.RenderMs || serve.EncodeMs != hop.EncodeMs {
		t.Errorf("stage mismatch across the hop: owner render/encode %.3f/%.3f, proxy %.3f/%.3f",
			serve.RenderMs, serve.EncodeMs, hop.RenderMs, hop.EncodeMs)
	}

	// Server-side spans must not pollute either node's /qoe view.
	for name, reg := range map[string]*obs.Registry{"proxy": a.reg, "owner": b.reg} {
		ring := reg.Trace()
		if q := obs.ComputeQoE(ring.Recent(ring.Len()), obs.QoEConfig{Player: -1}); q.Spans != 0 {
			t.Errorf("%s node QoE counted %d server-side spans, want 0", name, q.Spans)
		}
	}

	// A locally-owned point must not record any trace span (local serves
	// are not hops).
	before := len(a.reg.Trace().Recent(a.reg.Trace().Len()))
	local := pointsOwnedBy(t, a.cl, a.addr, 1)[0]
	if _, _, _, err := ca.FetchTraced(local); err != nil {
		t.Fatal(err)
	}
	if after := len(a.reg.Trace().Recent(a.reg.Trace().Len())); after != before {
		t.Errorf("local serve grew the trace ring %d → %d; server spans are for cluster hops only", before, after)
	}
}

// TestClusterConcurrentRemoteRequestsOneHop: N clients on the non-owner
// asking for one cold, remotely owned point at once cost the owner exactly
// one peer serve — the non-owner's store singleflight elects one leader and
// only the leader crosses the hop, which is why the cluster needs no
// coalescing of its own — and all N replies carry the same bytes.
func TestClusterConcurrentRemoteRequestsOneHop(t *testing.T) {
	nodes := startCluster(t, 2)
	a, b := nodes[0], nodes[1]
	game := poolEnv(t).Game.Spec.Name
	pt := pointsOwnedBy(t, a.cl, b.addr, 1)[0]

	const clients = 8
	conns := make([]*Client, clients)
	for i := range conns {
		c, err := Dial(a.addr, game, uint8(i+1))
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		conns[i] = c
	}
	datas := make([][]byte, clients)
	errs := make([]error, clients)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i, c := range conns {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			datas[i], errs[i] = c.Fetch(pt)
		}()
	}
	close(start)
	wg.Wait()
	for i := range conns {
		if errs[i] != nil {
			t.Fatalf("client %d: %v", i, errs[i])
		}
		if !bytesEqual(datas[i], datas[0]) {
			t.Errorf("client %d got different bytes than client 0", i)
		}
	}
	if n := b.reg.Snapshot().Counters["server.peer_frames_served"]; n != 1 {
		t.Errorf("owner's server.peer_frames_served = %d, want 1 (one hop per point per node)", n)
	}
	if n := a.reg.Snapshot().Counters["cluster.peer_fetches"]; n != 1 {
		t.Errorf("non-owner's cluster.peer_fetches = %d, want 1", n)
	}
}

// TestClusterUDPRequestCarriesTraceID: a UDP frame request is served with
// the trace id of its own player and request id, like a TCP request — so
// when the point is remotely owned, the hop span the proxying node records
// and the owner's serve span both carry it.
func TestClusterUDPRequestCarriesTraceID(t *testing.T) {
	nodes := startCluster(t, 2)
	a, b := nodes[0], nodes[1]
	pc, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer pc.Close()
	go a.srv.ServeFIUDP(pc)

	ch, err := DialUDP(pc.LocalAddr().String(), 5, false, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer ch.Close()
	pt := pointsOwnedBy(t, a.cl, b.addr, 1)[0]
	if _, ok := ch.Fetch(pt, 5*time.Second); !ok {
		t.Fatal("no UDP reply within the budget")
	}
	id := obs.TraceID(5, 1) // the channel's first request
	if spans := a.reg.Trace().ForTrace(id); len(spans) != 1 || spans[0].Hop != 1 {
		t.Errorf("proxy node spans for the UDP request's trace id: %+v, want one hop span", spans)
	}
	if spans := b.reg.Trace().ForTrace(id); len(spans) != 1 || spans[0].Hop != 2 || spans[0].Player != 5 {
		t.Errorf("owner node spans for the UDP request's trace id: %+v, want one serve span of player 5", spans)
	}
}

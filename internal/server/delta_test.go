package server

import (
	"bytes"
	"errors"
	"net"
	"sync"
	"testing"

	"coterie/internal/client"
	"coterie/internal/codec"
	"coterie/internal/geom"
	"coterie/internal/img"
	"coterie/internal/obs"
	"coterie/internal/sched"
	"coterie/internal/transport"
)

// startInstrumentedServer is startServer plus a registry, for tests that
// assert on the delta instruments.
func startInstrumentedServer(t *testing.T) (*Server, *obs.Registry, string) {
	t.Helper()
	srv := New(poolEnv(t))
	reg := obs.NewRegistry()
	srv.Instrument(reg)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go srv.Serve(ln)
	return srv, reg, ln.Addr().String()
}

// TestSessionDeltaFlowAndEvictFallback walks the whole delta protocol over
// a real TCP session, playing the client side by hand:
//
//  1. first fetch of a point is intra-coded (no holdings yet);
//  2. re-fetching it is served as a delta against itself — the first
//     reply made it a reference on both ends — and the client's
//     DeltaDecode against its retained reference reproduces the frame
//     exactly (identical reconstructions: every block skips);
//  3. a nearby point may be served as a delta against the held reference,
//     and decoding it tracks the point's own intra reconstruction;
//  4. after MaxHeldRefs newer references both ends have dropped the first
//     point, so a re-fetch of it is intra or a delta against a point still
//     held — never against the dropped point.
func TestSessionDeltaFlowAndEvictFallback(t *testing.T) {
	srv, reg, addr := startInstrumentedServer(t)
	cl, err := client.Dial(addr, "pool", 5)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	grid := srv.env.Game.Scene.Grid
	ptA := grid.Snap(srv.env.Game.Spawn)

	r1, err := cl.Fetch(ptA, 0)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Kind != transport.FrameIntra {
		t.Fatalf("first fetch kind = %d, want intra", r1.Kind)
	}
	ref, err := codec.Decode(r1.Data)
	if err != nil {
		t.Fatal(err)
	}
	// held is this hand-played client's side of the reference rule.
	var held transport.HeldRefs[struct{}]
	held.Hold(ptA, struct{}{})

	r2, err := cl.Fetch(ptA, 0)
	if err != nil {
		t.Fatal(err)
	}
	if r2.Kind != transport.FrameDelta {
		t.Fatalf("re-fetch kind = %d, want delta", r2.Kind)
	}
	if r2.Ref != ptA {
		t.Fatalf("delta reference = %v, want %v", r2.Ref, ptA)
	}
	if len(r2.Data) >= len(r1.Data) {
		t.Fatalf("delta %d bytes did not beat intra %d bytes", len(r2.Data), len(r1.Data))
	}
	dec, err := codec.DeltaDecode(r2.Data, ref)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(dec.Pix, ref.Pix) {
		t.Fatal("same-point delta did not reconstruct the reference exactly")
	}
	codec.ReleaseGray(dec)

	// A nearby point: within the leaf's DistThresh it is eligible for delta
	// coding against the held reference. Whichever way the size race goes,
	// the reply must be decodable and match the point's intra reconstruction.
	ptB := geom.GridPoint{I: ptA.I + 1, J: ptA.J}
	r3, err := cl.Fetch(ptB, 0)
	if err != nil {
		t.Fatal(err)
	}
	if r3.IsReference() {
		held.Hold(ptB, struct{}{})
	}
	intraB, err := srv.FrameFor(ptB)
	if err != nil {
		t.Fatal(err)
	}
	reconB, err := codec.Decode(intraB)
	if err != nil {
		t.Fatal(err)
	}
	var decB *img.Gray
	switch r3.Kind {
	case transport.FrameDelta:
		if r3.Ref != ptA {
			t.Fatalf("nearby delta reference = %v, want %v", r3.Ref, ptA)
		}
		decB, err = codec.DeltaDecode(r3.Data, ref)
	case transport.FrameIntra:
		decB, err = codec.Decode(r3.Data)
	default:
		t.Fatalf("unexpected frame kind %d", r3.Kind)
	}
	if err != nil {
		t.Fatal(err)
	}
	mad, _ := img.MeanAbsDiff(decB, reconB)
	if mad > 3 {
		t.Fatalf("decoded nearby frame diverged from its intra reconstruction: MAD %v (kind %d)", mad, r3.Kind)
	}
	codec.ReleaseGray(decB)
	codec.ReleaseGray(reconB)

	// MaxHeldRefs newer references push ptA out on both ends.
	newer := 0
	for k := 0; newer < transport.MaxHeldRefs; k++ {
		// 18 steps apart: farther than any leaf's DistThresh on this grid,
		// so most of these are intra references.
		pt := geom.GridPoint{I: ptA.I - 64 + 18*(k%16), J: ptA.J + 18*(1+k/16)}
		if !grid.In(pt) {
			t.Fatalf("%d newer references after %d fetches; the walk needs %d", newer, k, transport.MaxHeldRefs)
		}
		r, err := cl.Fetch(pt, 0)
		if err != nil {
			t.Fatal(err)
		}
		if _, ok := held.Get(pt); !ok && r.IsReference() {
			held.Hold(pt, struct{}{})
			newer++
		}
	}
	if _, ok := held.Get(ptA); ok {
		t.Fatalf("%v still held after %d newer references", ptA, newer)
	}
	r4, err := cl.Fetch(ptA, 0)
	if err != nil {
		t.Fatal(err)
	}
	switch r4.Kind {
	case transport.FrameIntra:
		if !bytes.Equal(r4.Data, r1.Data) {
			t.Fatal("intra bytes changed across the session for an unevicted store entry")
		}
	case transport.FrameDelta:
		if _, ok := held.Get(r4.Ref); !ok || r4.Ref == ptA {
			t.Fatalf("re-fetch of dropped %v is a delta against %v, which the client does not hold", ptA, r4.Ref)
		}
	default:
		t.Fatalf("unexpected frame kind %d", r4.Kind)
	}

	snap := reg.Snapshot()
	if c := snap.Counters["server.delta_frames"]; c < 1 {
		t.Errorf("server.delta_frames = %d, want >= 1", c)
	}
	if c := snap.Counters["server.delta_bytes_saved"]; c < 1 {
		t.Errorf("server.delta_bytes_saved = %d, want > 0", c)
	}
	codec.ReleaseGray(ref)
}

// TestStoreDeltaCache covers the encoded-delta cache riding on store
// entries: lookups are keyed by (point, reference point), a put against a
// non-resident entry is dropped, the per-entry FIFO stays bounded, and
// delta bytes are charged to (and reclaimed from) the byte budget.
func TestStoreDeltaCache(t *testing.T) {
	st := newFrameStore()
	pt := geom.GridPoint{I: 1, J: 2}
	_, ok, c, leader := st.lookup(pt)
	if ok || !leader {
		t.Fatal("expected to lead the first render")
	}
	st.complete(pt, c, make([]byte, 100), nil)

	ref := geom.GridPoint{I: 1, J: 3}
	st.putDelta(pt, ref, make([]byte, 10))
	if got, ok := st.delta(pt, ref); !ok || len(got) != 10 {
		t.Fatalf("cached delta lookup = %v,%v", got, ok)
	}
	if _, ok := st.delta(pt, geom.GridPoint{I: 1, J: 4}); ok {
		t.Fatal("delta matched a different reference")
	}
	if _, ok := st.delta(ref, pt); ok {
		t.Fatal("delta matched a never-stored frame")
	}
	if st.Bytes() != 110 {
		t.Fatalf("store bytes %d, want frame 100 + delta 10", st.Bytes())
	}

	// A put against an entry the store does not hold (evicted since the
	// caller read it) must be dropped without touching accounting.
	st.putDelta(ref, pt, make([]byte, 50))
	if st.Bytes() != 110 {
		t.Fatalf("putDelta on a non-resident entry changed accounting: %d bytes", st.Bytes())
	}

	// Fill past the FIFO bound: the oldest delta is replaced.
	for i := 0; i < maxDeltasPerEntry; i++ {
		st.putDelta(pt, geom.GridPoint{I: 10 + i}, make([]byte, 10))
	}
	if _, ok := st.delta(pt, ref); ok {
		t.Fatal("oldest delta survived FIFO replacement")
	}
	if _, ok := st.delta(pt, geom.GridPoint{I: 10 + maxDeltasPerEntry - 1}); !ok {
		t.Fatal("newest delta missing after FIFO replacement")
	}
	if want := int64(100 + 10*maxDeltasPerEntry); st.Bytes() != want {
		t.Fatalf("store bytes %d, want %d", st.Bytes(), want)
	}

	// Budget pressure evicts the entry with its deltas, reclaiming the full
	// size() charge.
	st.SetBudget(50)
	if st.Bytes() != 0 || st.Len() != 0 {
		t.Fatalf("after eviction: %d bytes / %d entries", st.Bytes(), st.Len())
	}
	if _, ok := st.delta(pt, geom.GridPoint{I: 10}); ok {
		t.Fatal("delta survived its entry's eviction")
	}
}

// TestFrameForSessionRacesEviction hammers the staged serve path from two
// concurrent sessions over neighbouring points while a third goroutine
// churns the store budget, so LRU eviction races the in-flight delta
// encodings and reference reads the sessions perform. Run under -race this
// pins the store's slice-ownership contract end to end: every serve must
// either return intact frame bytes or the overload error — never bytes an
// evictor mutated.
func TestFrameForSessionRacesEviction(t *testing.T) {
	srv := New(poolEnv(t))
	grid := srv.env.Game.Scene.Grid
	spawn := grid.Snap(srv.env.Game.Spawn)

	const iters = 60
	stop := make(chan struct{})
	var churn sync.WaitGroup
	churn.Add(1)
	go func() {
		defer churn.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if i%2 == 0 {
				srv.SetStoreBudget(2 << 10)
			} else {
				srv.SetStoreBudget(0)
			}
		}
	}()

	var sessions sync.WaitGroup
	for p := 0; p < 2; p++ {
		sessions.Add(1)
		go func(p int) {
			defer sessions.Done()
			refs := &transport.HeldRefs[struct{}]{}
			for i := 0; i < iters; i++ {
				pt := geom.GridPoint{I: spawn.I + (i+p)%3, J: spawn.J + i%2}
				var dl float64
				if i%3 == 0 {
					dl = sched.NowMs() + 16.7
				}
				res, err := srv.serve(frameReq{pt: pt, deadlineMs: dl, refs: refs})
				if err != nil {
					if errors.Is(err, errOverloaded) {
						continue
					}
					t.Errorf("session %d iter %d: %v", p, i, err)
					return
				}
				if len(res.Data) == 0 {
					t.Errorf("session %d iter %d: empty frame", p, i)
					return
				}
			}
		}(p)
	}
	sessions.Wait()
	close(stop)
	churn.Wait()
}

// TestDeltaReferenceTieBreak pins the choice between equidistant held
// references: the served Ref (and with it the reply's kind and bytes) must
// not depend on map iteration order, so fresh sessions holding the same
// two references — one grid step either side of the requested point —
// always delta against the (J, I)-smaller one.
func TestDeltaReferenceTieBreak(t *testing.T) {
	srv := New(poolEnv(t))
	grid := srv.env.Game.Scene.Grid
	pt := grid.Snap(srv.env.Game.Spawn)
	lo, hi := geom.GridPoint{I: pt.I - 1, J: pt.J}, geom.GridPoint{I: pt.I + 1, J: pt.J}
	leaf := srv.env.Map.LeafAt(grid.Pos(pt))
	for _, ref := range []geom.GridPoint{lo, hi} {
		if d := grid.Dist(pt, ref); d > leaf.DistThresh || srv.env.Map.LeafAt(grid.Pos(ref)) != leaf {
			t.Fatalf("reference %v does not qualify (dist %v, thresh %v): pick another fixture", ref, d, leaf.DistThresh)
		}
		if _, err := srv.FrameFor(ref); err != nil {
			t.Fatal(err)
		}
	}
	intra, err := srv.FrameFor(pt)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		refs := &transport.HeldRefs[struct{}]{}
		for _, ref := range []geom.GridPoint{hi, lo} {
			refs.Hold(ref, struct{}{})
		}
		_, ref, ok := srv.deltaFor(pt, intra, refs)
		if !ok {
			t.Fatal("no delta against an adjacent held reference: the tie-break is untested")
		}
		if ref != lo {
			t.Fatalf("session %d: delta reference %v, want %v", i, ref, lo)
		}
	}
}

// TestReconstructionDecodedOnFirstDeltaUse pins the lazy reconstruction:
// cold misses leave the reconstruction cache empty (a miss renders and
// encodes, it never decodes), and the first delta serve of a walk decodes
// exactly the two rasters it needs and codes between them — the same
// bytes as DeltaEncode between independently decoded reconstructions.
func TestReconstructionDecodedOnFirstDeltaUse(t *testing.T) {
	srv := New(poolEnv(t))
	grid := srv.env.Game.Scene.Grid
	spawn := grid.Snap(srv.env.Game.Spawn)
	for i := 0; i < 12; i++ {
		if _, err := srv.FrameFor(geom.GridPoint{I: spawn.I + i%4, J: spawn.J + i/4}); err != nil {
			t.Fatal(err)
		}
	}
	if _, rendered := srv.Stats(); rendered != 12 {
		t.Fatalf("rendered %d frames, want 12 cold misses", rendered)
	}
	if n := srv.panos.entries.Len(); n != 0 {
		t.Fatalf("%d reconstructions cached after cold misses, want none", n)
	}

	// A walk on a fresh stretch: the first step is served intra and becomes
	// the reference, the second is a miss served as a delta against it.
	ptA := geom.GridPoint{I: spawn.I, J: spawn.J + 5}
	ptB := geom.GridPoint{I: spawn.I + 1, J: spawn.J + 5}
	refs := &transport.HeldRefs[struct{}]{}
	first, err := srv.serve(frameReq{pt: ptA, refs: refs})
	if err != nil {
		t.Fatal(err)
	}
	second, err := srv.serve(frameReq{pt: ptB, refs: refs})
	if err != nil {
		t.Fatal(err)
	}
	if first.Kind != transport.FrameIntra || second.Kind != transport.FrameDelta || second.Ref != ptA || !second.rendered {
		t.Fatalf("walk served kinds %d, %d (ref %v, rendered %v); want intra, then a rendered delta against %v",
			first.Kind, second.Kind, second.Ref, second.rendered, ptA)
	}
	newCanonical(srv.env).checkDelta(t, ptB, ptA, second.Data)
	if n := srv.panos.entries.Len(); n != 2 {
		t.Fatalf("%d reconstructions cached after one delta serve, want the 2 it coded between", n)
	}
}

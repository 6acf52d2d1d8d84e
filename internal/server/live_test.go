package server

import (
	"bytes"
	"testing"

	"coterie/internal/client"
	"coterie/internal/codec"
	"coterie/internal/geom"
	"coterie/internal/img"
	"coterie/internal/transport"
)

// TestStaleReplyNeverBecomesReference: the live client's reference store
// holds pt's exact reconstruction after an exact intra reply for pt, and a
// later stale-rung reply for pt — a neighbour's frame standing in for it —
// must leave that reference alone. The server still names pt as a delta
// reference, so a swapped raster would decode the next delta against pt
// into wrong pixels without an error.
func TestStaleReplyNeverBecomesReference(t *testing.T) {
	srv := New(poolEnv(t))
	pt := srv.env.Game.Scene.Grid.Snap(srv.env.Game.Spawn)
	nb := geom.GridPoint{I: pt.I + 1, J: pt.J}
	exact, err := srv.FrameFor(pt)
	if err != nil {
		t.Fatal(err)
	}
	substitute, err := srv.FrameFor(nb)
	if err != nil {
		t.Fatal(err)
	}
	want, err := codec.Decode(exact)
	if err != nil {
		t.Fatal(err)
	}
	other, err := codec.Decode(substitute)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(want.Pix, other.Pix) {
		t.Fatalf("%v and %v decode identically; the test needs two different frames", pt, nb)
	}

	src := &client.Refs{}
	if err := src.Decode(pt, transport.FrameReply{Point: pt, Data: exact}); err != nil {
		t.Fatal(err)
	}
	if err := src.Decode(pt, transport.FrameReply{Point: pt, Rung: transport.RungStale, Data: substitute}); err != nil {
		t.Fatal(err)
	}
	got, ok := src.Get(pt)
	if !ok {
		t.Fatalf("reference for %v gone after a stale reply", pt)
	}
	if !bytes.Equal(got.Pix, want.Pix) {
		t.Errorf("reference for %v is no longer its exact reconstruction after a stale reply", pt)
	}
	if src.Len() != 1 {
		t.Errorf("reference store holds %d frames, want 1", src.Len())
	}
}

// TestHeldRefsAgreeAcrossEnds drives one session through the real serve
// and feeds every reply to the real client.Refs.Decode, so the server's
// and the client's halves of the reference rule see the same replies. The
// walk holds more than 2×MaxHeldRefs intra references around the pool
// spawn: an anchor (a reference), its neighbour (a delta against it), and
// then the oldest point the server holds (a delta against itself, the
// reference about to be dropped). A second lap returns to anchors both
// ends have dropped. A delta naming a point the client dropped fails
// Decode; the two ends must also hold the same points in the same
// order after every reply.
func TestHeldRefsAgreeAcrossEnds(t *testing.T) {
	srv := New(poolEnv(t))
	grid := srv.env.Game.Scene.Grid
	spawn := grid.Snap(srv.env.Game.Spawn)
	server := &transport.HeldRefs[struct{}]{}
	cl := &client.Refs{}

	var refs, deltas, deltasAfterEvict, revisits int
	evicted := false
	everHeld := make(map[geom.GridPoint]bool)
	fetch := func(pt geom.GridPoint) {
		t.Helper()
		_, wasHeld := server.Get(pt)
		res, err := srv.serve(frameReq{pt: pt, refs: server})
		if err != nil {
			t.Fatal(err)
		}
		if err := cl.Decode(pt, res.FrameReply); err != nil {
			t.Fatal(err)
		}
		switch {
		case res.Kind == transport.FrameDelta:
			deltas++
			if evicted {
				deltasAfterEvict++
			}
		case res.IsReference() && !wasHeld:
			if everHeld[pt] {
				revisits++
			}
			everHeld[pt] = true
			refs++
			evicted = evicted || refs > transport.MaxHeldRefs
		}
		var held []geom.GridPoint
		server.Each(func(p geom.GridPoint, _ struct{}) { held = append(held, p) })
		k := 0
		cl.Each(func(p geom.GridPoint, _ *img.Gray) {
			if k >= len(held) || held[k] != p {
				t.Fatalf("after %v: client holds %v at %d, server %v", pt, p, k, held)
			}
			k++
		})
		if k != len(held) {
			t.Fatalf("after %v: client holds %d references, server %d", pt, k, len(held))
		}
	}

	const anchors = 80 // more than MaxHeldRefs, so a lap drops the first
	for lap := 0; lap < 2; lap++ {
		for a := 0; a < anchors; a++ {
			// 18 steps apart: farther than any leaf's DistThresh here.
			anchor := geom.GridPoint{I: spawn.I - 63 + 18*(a%10), J: spawn.J - 72 + 18*(a/10)}
			fetch(anchor)
			fetch(geom.GridPoint{I: anchor.I + 1, J: anchor.J})
			var oldest geom.GridPoint
			first := true
			server.Each(func(p geom.GridPoint, _ struct{}) {
				if first {
					oldest, first = p, false
				}
			})
			fetch(oldest)
		}
	}
	if refs < 2*transport.MaxHeldRefs || revisits == 0 {
		t.Fatalf("walk held %d references (%d of them dropped and held again); want ≥ %d and some",
			refs, revisits, 2*transport.MaxHeldRefs)
	}
	if deltasAfterEvict == 0 {
		t.Fatalf("no delta after the first eviction (%d deltas in all)", deltas)
	}
	t.Logf("%d references (%d held again after a drop), %d deltas (%d after the first eviction)",
		refs, revisits, deltas, deltasAfterEvict)
}

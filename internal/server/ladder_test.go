package server

import (
	"testing"

	"coterie/internal/geom"
	"coterie/internal/transport"
)

// TestStaleRungServesCalibratedNeighbour drives the degrade ladder's one
// rung over a real session. A request with a 1 µs budget — what
// transport.BudgetUs sends for a deadline that has already passed — is at
// risk by construction; what it is served depends only on what the store
// holds:
//
//  1. nothing within the leaf's DistThresh resident: it renders, rung exact;
//  2. a calibrated neighbour resident and the point itself absent: it is
//     answered with exactly the neighbour's stored bytes, tagged stale,
//     without a render — and the stale bytes do not become a delta
//     reference for the point they stood in for;
//  3. the same point asked for again without a deadline never takes the
//     rung: it renders and is served exact.
func TestStaleRungServesCalibratedNeighbour(t *testing.T) {
	srv, reg, addr := startInstrumentedServer(t)
	env := srv.env
	grid := env.Game.Scene.Grid
	pt := grid.Snap(env.Game.Spawn)
	nb := geom.GridPoint{I: pt.I + 1, J: pt.J}
	leaf := env.Map.LeafAt(grid.Pos(pt))
	if leaf == nil || env.Map.LeafAt(grid.Pos(nb)) != leaf || grid.Dist(pt, nb) > leaf.DistThresh {
		t.Fatalf("%v is not a calibrated neighbour of %v (leaf %+v)", nb, pt, leaf)
	}
	canon := newCanonical(env)
	cl, err := Dial(addr, "pool", 3)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	const late = 1 // µs
	stale := reg.Counter("server.degrade_stale")

	r1, _, _, err := cl.FetchWithBudget(nb, late)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Rung != transport.RungExact || r1.Kind != transport.FrameIntra {
		t.Fatalf("cold store, past deadline: rung %d kind %d, want an exact intra render", r1.Rung, r1.Kind)
	}
	canon.checkIntra(t, nb, r1.Data)
	if _, rendered := srv.Stats(); rendered != 1 || stale.Value() != 0 {
		t.Fatalf("cold store, past deadline: %d renders, %d stale serves, want 1 and 0", rendered, stale.Value())
	}

	r2, _, _, err := cl.FetchWithBudget(pt, late)
	if err != nil {
		t.Fatal(err)
	}
	if r2.Rung != transport.RungStale || r2.Kind != transport.FrameIntra {
		t.Fatalf("neighbour resident, past deadline: rung %d kind %d, want a stale intra serve", r2.Rung, r2.Kind)
	}
	if !bytesEqual(r2.Data, r1.Data) {
		t.Errorf("stale serve of %v is not the stored bytes of its neighbour %v", pt, nb)
	}
	if _, rendered := srv.Stats(); rendered != 1 || stale.Value() != 1 {
		t.Errorf("stale serve: %d renders, %d stale serves, want 1 and 1", rendered, stale.Value())
	}

	r3, _, _, err := cl.FetchWithBudget(pt, 0)
	if err != nil {
		t.Fatal(err)
	}
	if r3.Rung != transport.RungExact {
		t.Fatalf("deadline-less request took rung %d", r3.Rung)
	}
	if _, rendered := srv.Stats(); rendered != 2 {
		t.Errorf("deadline-less request for an absent point: %d renders, want 2", rendered)
	}
	// Had the stale serve registered pt as held, this reply would be a
	// (nearly free) delta against pt itself, the nearest reference.
	switch r3.Kind {
	case transport.FrameIntra:
		canon.checkIntra(t, pt, r3.Data)
	case transport.FrameDelta:
		if r3.Ref != nb {
			t.Errorf("delta reference %v, want the one frame the session holds (%v)", r3.Ref, nb)
		}
		canon.checkDelta(t, pt, r3.Ref, r3.Data)
	}
}

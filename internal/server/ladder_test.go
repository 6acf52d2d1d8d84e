package server

import (
	"testing"

	"coterie/internal/client"
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
//  2. a calibrated neighbour (same leaf, within DistThresh, same near-BE
//     object set: the client cache's three criteria) resident and the
//     point itself absent: it is answered with exactly the neighbour's
//     stored bytes, tagged stale, without a render — and the stale bytes
//     do not become a delta reference for the point they stood in for;
//     a neighbour that meets the first two criteria but has another
//     near-BE object set never stands in: the point renders, rung exact;
//  3. the same point asked for again without a deadline never takes the
//     rung: it renders and is served exact.
//
// Pool's spawn point and its east neighbour are 0.031 m apart in one leaf
// but differ in near set; the next pair east meets all three criteria.
func TestStaleRungServesCalibratedNeighbour(t *testing.T) {
	for _, tc := range []struct {
		name        string
		east        int // pt is the spawn point moved this many steps east; nb is pt's east neighbour
		sameSig     bool
		wantRung    transport.DegradeRung
		wantStale   int64
		wantRenders int64
	}{
		{"same near set", 1, true, transport.RungStale, 1, 1},
		{"other near set", 0, false, transport.RungExact, 0, 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			srv, reg, addr := startInstrumentedServer(t)
			env := srv.env
			grid := env.Game.Scene.Grid
			spawn := grid.Snap(env.Game.Spawn)
			pt := geom.GridPoint{I: spawn.I + tc.east, J: spawn.J}
			nb := geom.GridPoint{I: pt.I + 1, J: pt.J}
			meta := env.MetaFor()
			leaf, sig, thresh := meta(pt)
			if nbLeaf, nbSig, _ := meta(nb); leaf < 0 || nbLeaf != leaf || (nbSig == sig) != tc.sameSig || grid.Dist(pt, nb) > thresh {
				t.Fatalf("%v must share %v's leaf and be within its DistThresh, same near set %v (leaf %d, signature %x vs %x)", nb, pt, tc.sameSig, leaf, sig, nbSig)
			}
			canon := newCanonical(env)
			cl, err := client.Dial(addr, "pool", 3)
			if err != nil {
				t.Fatal(err)
			}
			defer cl.Close()
			const late = 1 // µs
			stale := reg.Counter("server.degrade_stale")

			r1, err := cl.Fetch(nb, late)
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

			r2, err := cl.Fetch(pt, late)
			if err != nil {
				t.Fatal(err)
			}
			if r2.Rung != tc.wantRung {
				t.Fatalf("neighbour resident, past deadline: rung %d, want %d", r2.Rung, tc.wantRung)
			}
			if _, rendered := srv.Stats(); rendered != tc.wantRenders || stale.Value() != tc.wantStale {
				t.Errorf("neighbour resident, past deadline: %d renders, %d stale serves, want %d and %d", rendered, stale.Value(), tc.wantRenders, tc.wantStale)
			}
			if tc.wantRung == transport.RungExact {
				switch r2.Kind {
				case transport.FrameIntra:
					canon.checkIntra(t, pt, r2.Data)
				case transport.FrameDelta:
					canon.checkDelta(t, pt, r2.Ref, r2.Data)
				}
				return
			}
			if r2.Kind != transport.FrameIntra {
				t.Fatalf("stale serve: kind %d, want intra", r2.Kind)
			}
			if !bytesEqual(r2.Data, r1.Data) {
				t.Errorf("stale serve of %v is not the stored bytes of its neighbour %v", pt, nb)
			}

			r3, err := cl.Fetch(pt, 0)
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
		})
	}
}

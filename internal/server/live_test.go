package server

import (
	"bytes"
	"testing"

	"coterie/internal/cache"
	"coterie/internal/codec"
	"coterie/internal/geom"
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

	src := &liveSource{decode: true, refs: cache.NewRefStore(32<<20, nil)}
	if err := src.decodeReply(pt, transport.FrameReply{Point: pt, Data: exact}); err != nil {
		t.Fatal(err)
	}
	if err := src.decodeReply(pt, transport.FrameReply{Point: pt, Rung: transport.RungStale, Data: substitute}); err != nil {
		t.Fatal(err)
	}
	got, ok := src.refs.Get(pt)
	if !ok {
		t.Fatalf("reference for %v gone after a stale reply", pt)
	}
	if !bytes.Equal(got.Pix, want.Pix) {
		t.Errorf("reference for %v is no longer its exact reconstruction after a stale reply", pt)
	}
	if src.refs.Len() != 1 {
		t.Errorf("reference store holds %d frames, want 1", src.refs.Len())
	}
}

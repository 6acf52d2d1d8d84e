package client

import (
	"strings"
	"testing"

	"coterie/internal/codec"
	"coterie/internal/geom"
	"coterie/internal/img"
	"coterie/internal/transport"
)

// testRaster is a small frame with some structure for the codec to keep.
func testRaster(shift int) *img.Gray {
	g := img.NewGray(32, 16)
	for i := range g.Pix {
		g.Pix[i] = uint8((i*7 + shift) % 251)
	}
	return g
}

// TestRefsDecodeRejectsUnheldReference: a delta whose reference the client
// does not hold cannot be reconstructed; Decode says so, naming the frame
// and the missing reference, and the held set is unchanged.
func TestRefsDecodeRejectsUnheldReference(t *testing.T) {
	var r Refs
	held := geom.GridPoint{I: 1, J: 2}
	intra := transport.FrameReply{Kind: transport.FrameIntra, Rung: transport.RungExact, Data: codec.Encode(testRaster(0), codec.DefaultCRF)}
	if err := r.Decode(held, intra); err != nil {
		t.Fatal(err)
	}
	if r.Len() != 1 {
		t.Fatalf("an exact intra reply: %d points held, want 1", r.Len())
	}

	pt, missing := geom.GridPoint{I: 3, J: 4}, geom.GridPoint{I: 5, J: 6}
	delta := transport.FrameReply{
		Kind: transport.FrameDelta, Rung: transport.RungExact, Ref: missing,
		Data: codec.DeltaEncode(testRaster(1), testRaster(0), codec.DefaultCRF),
	}
	err := r.Decode(pt, delta)
	if err == nil {
		t.Fatalf("delta of %v against unheld %v decoded", pt, missing)
	}
	for _, p := range []geom.GridPoint{pt, missing} {
		if !strings.Contains(err.Error(), p.String()) {
			t.Errorf("error %q does not name %v", err, p)
		}
	}
	if _, ok := r.Get(missing); ok || r.Len() != 1 {
		t.Errorf("after the rejected delta: %d points held (reference held %v), want 1 and false", r.Len(), ok)
	}

	// The same delta against the held point decodes.
	delta.Ref = held
	if err := r.Decode(pt, delta); err != nil {
		t.Fatalf("delta against held %v: %v", held, err)
	}
}

// TestRefsDecodeRejectsUndecodablePayload: a reference reply whose bytes
// do not decode is an error and is not held, truncated or garbage.
func TestRefsDecodeRejectsUndecodablePayload(t *testing.T) {
	pt := geom.GridPoint{I: 7, J: 8}
	valid := codec.Encode(testRaster(0), codec.DefaultCRF)
	for name, data := range map[string][]byte{
		"empty":     nil,
		"garbage":   []byte("not a frame at all"),
		"truncated": valid[:len(valid)/2],
	} {
		t.Run(name, func(t *testing.T) {
			var r Refs
			reply := transport.FrameReply{Kind: transport.FrameIntra, Rung: transport.RungExact, Data: data}
			if !reply.IsReference() {
				t.Fatal("an exact intra reply must be a reference")
			}
			err := r.Decode(pt, reply)
			if err == nil {
				t.Fatalf("%d undecodable bytes decoded", len(data))
			}
			if !strings.Contains(err.Error(), pt.String()) {
				t.Errorf("error %q does not name %v", err, pt)
			}
			if r.Len() != 0 {
				t.Errorf("%d points held after a failed decode, want 0", r.Len())
			}
		})
	}
}

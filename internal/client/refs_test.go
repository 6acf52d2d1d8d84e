package client

import (
	"bytes"
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

// TestRefsDeltaAgainstEvictedRaster: a Refs keeps the bytes of every held
// reference but only maxDecodedRefs rasters. After more keyframes than
// that, the oldest reference's raster is gone; a delta against it decodes
// the held bytes again, to a raster bit-equal to the one decoded when the
// reference was held, and reconstructs the delta frame exactly as that
// raster would.
func TestRefsDeltaAgainstEvictedRaster(t *testing.T) {
	var r Refs
	const n = maxDecodedRefs + 3
	atHold := make([]*img.Gray, n)
	for k := range atHold {
		data := codec.Encode(testRaster(3*k), codec.DefaultCRF)
		reply := transport.FrameReply{Kind: transport.FrameIntra, Rung: transport.RungExact, Data: data}
		if err := r.Decode(geom.GridPoint{I: k}, reply); err != nil {
			t.Fatal(err)
		}
		g, err := codec.Decode(data)
		if err != nil {
			t.Fatal(err)
		}
		atHold[k] = g
	}
	if r.Len() != n || r.decoded.Len() != maxDecodedRefs {
		t.Fatalf("after %d keyframes: %d held, %d decoded; want %d and %d", n, r.Len(), r.decoded.Len(), n, maxDecodedRefs)
	}
	oldest := geom.GridPoint{I: 0}
	if _, ok := r.decoded.Peek(oldest); ok {
		t.Fatalf("%v still decoded after %d newer keyframes", oldest, n-1)
	}

	data := codec.DeltaEncode(testRaster(1), atHold[0], codec.DefaultCRF)
	delta := transport.FrameReply{Kind: transport.FrameDelta, Rung: transport.RungExact, Ref: oldest, Data: data}
	if err := r.Decode(geom.GridPoint{I: 100}, delta); err != nil {
		t.Fatal(err)
	}
	if r.decoded.Len() != maxDecodedRefs {
		t.Errorf("%d rasters decoded after the delta, want %d", r.decoded.Len(), maxDecodedRefs)
	}
	got, err := r.raster(oldest)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Pix, atHold[0].Pix) {
		t.Fatalf("%v decoded again from its held bytes differs from its raster at hold time", oldest)
	}
	want, err := codec.DeltaDecode(data, atHold[0])
	if err != nil {
		t.Fatal(err)
	}
	dec, err := codec.DeltaDecode(data, got)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(dec.Pix, want.Pix) {
		t.Error("the delta against the re-decoded reference reconstructs differently")
	}
}

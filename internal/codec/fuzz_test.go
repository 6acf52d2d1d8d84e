package codec

import (
	"math/rand"
	"testing"

	"coterie/internal/img"
)

// Malformed input is an error, never a panic, a wrong-sized frame or a
// leaked raster. Both targets run their seed corpus inside `go test`; the
// seeds are the round-trip tests' streams, truncations of them and the
// header-only allocation bomb.

// headerOnly is a stream that ends right after a header claiming w x h.
func headerOnly(ver uint64, w, h uint32) []byte {
	bw := &bitWriter{}
	bw.writeBits(magic, 16)
	bw.writeBits(ver, 8)
	bw.writeBits(DefaultCRF, 8)
	bw.writeUE(w)
	bw.writeUE(h)
	return bw.bytes()
}

// poolLen primes the raster freelist with one entry, so a decode's
// checkout and hand-back both show up in its length, and returns that
// length.
func poolLen() int {
	grayMu.Lock()
	defer grayMu.Unlock()
	if len(grayFree) == 0 {
		grayFree = append(grayFree, img.NewGray(8, 8))
	}
	return len(grayFree)
}

// checkPool requires that a decode which returned g (nil on error) left the
// freelist holding every raster it does not own: an error path hands its
// raster back exactly once, a success keeps exactly one.
func checkPool(t *testing.T, before int, g *img.Gray) {
	t.Helper()
	want := before
	if g != nil {
		want--
	}
	grayMu.Lock()
	defer grayMu.Unlock()
	if len(grayFree) != want {
		t.Fatalf("raster freelist holds %d entries after the decode, want %d", len(grayFree), want)
	}
	seen := map[*img.Gray]bool{g: true}
	for _, f := range grayFree {
		if seen[f] {
			t.Fatal("raster released twice, or released and returned")
		}
		seen[f] = true
	}
}

func FuzzDecode(f *testing.F) {
	rng := rand.New(rand.NewSource(11))
	for _, src := range []*img.Gray{
		flatImage(16, 16, 90), gradientImage(24, 16), gradientImage(21, 13), noisyImage(rng, 17, 9),
	} {
		for _, crf := range []int{0, DefaultCRF, 51} {
			data := Encode(src, crf)
			if g, err := Decode(data); err != nil || g.W != src.W || g.H != src.H {
				f.Fatalf("Encode output does not decode: %v", err)
			}
			f.Add(data)
			f.Add(data[:len(data)/2])
		}
	}
	f.Add(headerOnly(version, 1<<15, 1<<15)) // twelve bytes asking for 1 GiB
	f.Add(headerOnly(version, 8, 8))
	f.Add(DeltaEncode(gradientImage(24, 16), flatImage(24, 16, 90), DefaultCRF))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		before := poolLen()
		g, err := Decode(data)
		checkPool(t, before, g)
		if err != nil {
			if g != nil {
				t.Fatal("Decode returned a raster with an error")
			}
			return
		}
		if len(g.Pix) != g.W*g.H {
			t.Fatalf("%dx%d raster with %d pixels", g.W, g.H, len(g.Pix))
		}
		if blocks := blocksAcross(g.W) * blocksAcross(g.H); blocks > len(data)*8 {
			t.Fatalf("%d blocks decoded from %d bits", blocks, len(data)*8)
		}
		// Whatever decodes re-encodes to a stream that decodes.
		again, err := Decode(Encode(g, int(data[3])))
		if err != nil || again.W != g.W || again.H != g.H {
			t.Fatalf("re-encoded frame does not decode: %v", err)
		}
		ReleaseGray(again)
		ReleaseGray(g)
	})
}

func FuzzDeltaDecode(f *testing.F) {
	rng := rand.New(rand.NewSource(12))
	// Two references: whole blocks, and a size that is not a multiple of 8.
	refs := [2]*img.Gray{noisyImage(rng, 24, 16), noisyImage(rng, 21, 13)}
	for i, ref := range refs {
		for _, cur := range []*img.Gray{ref, offsetImage(rng, ref, 1), flatImage(ref.W, ref.H, 200)} {
			data := DeltaEncode(cur, ref, DefaultCRF)
			if g, err := DeltaDecode(data, ref); err != nil || g.W != ref.W || g.H != ref.H {
				f.Fatalf("DeltaEncode output does not decode: %v", err)
			}
			f.Add(data, i == 1)
			f.Add(data[:len(data)/2], i == 1)
		}
		f.Add(Encode(ref, DefaultCRF), i == 1)
	}
	f.Add(headerOnly(versionDelta, 1<<15, 1<<15), false)
	f.Add(headerOnly(versionDelta, 24, 16), false)
	f.Add([]byte{}, true)

	f.Fuzz(func(t *testing.T, data []byte, odd bool) {
		ref := refs[0]
		if odd {
			ref = refs[1]
		}
		before := poolLen()
		g, err := DeltaDecode(data, ref)
		checkPool(t, before, g)
		if err != nil {
			if g != nil {
				t.Fatal("DeltaDecode returned a raster with an error")
			}
			return
		}
		if g.W != ref.W || g.H != ref.H || len(g.Pix) != g.W*g.H {
			t.Fatalf("%dx%d raster (%d pixels) against a %dx%d reference", g.W, g.H, len(g.Pix), ref.W, ref.H)
		}
		if blocks := blocksAcross(g.W) * blocksAcross(g.H); blocks > len(data)*8 {
			t.Fatalf("%d blocks decoded from %d bits", blocks, len(data)*8)
		}
		again, err := DeltaDecode(DeltaEncode(g, ref, int(data[3])), ref)
		if err != nil {
			t.Fatalf("re-encoded delta does not decode: %v", err)
		}
		ReleaseGray(again)
		ReleaseGray(g)
	})
}

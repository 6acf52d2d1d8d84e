package codec

import (
	"bytes"
	"math/rand"
	"testing"

	"coterie/internal/games"
	"coterie/internal/geom"
	"coterie/internal/img"
	"coterie/internal/render"
	"coterie/internal/ssim"
)

// offsetImage returns src shifted horizontally by dx pixels with wrap,
// plus mild noise: a stand-in for "the same scene from a nearby grid
// point" when a synthetic frame is enough.
func offsetImage(rng *rand.Rand, src *img.Gray, dx int) *img.Gray {
	g := img.NewGray(src.W, src.H)
	for y := 0; y < src.H; y++ {
		for x := 0; x < src.W; x++ {
			v := int(src.Pix[y*src.W+(x+dx)%src.W]) + rng.Intn(5) - 2
			if v < 0 {
				v = 0
			}
			if v > 255 {
				v = 255
			}
			g.Pix[y*g.W+x] = uint8(v)
		}
	}
	return g
}

func TestKindInspector(t *testing.T) {
	src := gradientImage(64, 32)
	intra := Encode(src, DefaultCRF)
	if Kind(intra) != KindIntra {
		t.Fatalf("intra stream classified as %v", Kind(intra))
	}
	ref, err := Decode(intra)
	if err != nil {
		t.Fatal(err)
	}
	defer ReleaseGray(ref)
	delta := DeltaEncode(ref, ref, DefaultCRF)
	if Kind(delta) != KindDelta {
		t.Fatalf("delta stream classified as %v", Kind(delta))
	}
	for _, bad := range [][]byte{nil, {}, {0xC0}, {0xC0, 0x7E}, {0x00, 0x7E, 1}, {0xC0, 0x7E, 99}, {1, 2, 3, 4}} {
		if Kind(bad) != KindUnknown {
			t.Fatalf("garbage %v classified as %v", bad, Kind(bad))
		}
	}
}

func TestDeltaIdenticalFrameIsNearlyFree(t *testing.T) {
	// Every block of an identical frame hits the skip map, so the stream
	// is the header plus one bit per 8x8 block.
	src := gradientImage(128, 64)
	data := DeltaEncode(src, src, DefaultCRF)
	blocks := blocksAcross(src.W) * blocksAcross(src.H)
	if maxLen := blocks/8 + 16; len(data) > maxLen {
		t.Fatalf("identical-frame delta is %d bytes, want <= %d", len(data), maxLen)
	}
	dec, err := DeltaDecode(data, src)
	if err != nil {
		t.Fatal(err)
	}
	defer ReleaseGray(dec)
	if !bytes.Equal(dec.Pix, src.Pix) {
		t.Fatal("identical-frame delta did not reconstruct the reference exactly")
	}
}

func TestDeltaSmallerThanIntraForSimilarFrames(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	ref := gradientImage(128, 64)
	cur := offsetImage(rng, ref, 2)
	intra := Encode(cur, DefaultCRF)
	delta := DeltaEncode(cur, ref, DefaultCRF)
	if len(delta) >= len(intra) {
		t.Fatalf("similar-frame delta %d bytes >= intra %d bytes", len(delta), len(intra))
	}
	dec, err := DeltaDecode(delta, ref)
	if err != nil {
		t.Fatal(err)
	}
	defer ReleaseGray(dec)
	mad, _ := img.MeanAbsDiff(cur, dec)
	if mad > 8 {
		t.Fatalf("delta reconstruction MAD = %v", mad)
	}
}

func TestDeltaEncodeDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	ref := gradientImage(96, 48)
	cur := offsetImage(rng, ref, 3)
	a := DeltaEncode(cur, ref, DefaultCRF)
	b := DeltaEncode(cur, ref, DefaultCRF)
	if !bytes.Equal(a, b) {
		t.Fatal("DeltaEncode is not deterministic")
	}
}

func TestDeltaEncodeRejectsMismatch(t *testing.T) {
	a := gradientImage(64, 32)
	b := gradientImage(64, 48)
	if DeltaEncode(a, b, DefaultCRF) != nil {
		t.Fatal("dimension mismatch must return nil")
	}
	if DeltaEncode(nil, a, DefaultCRF) != nil || DeltaEncode(a, nil, DefaultCRF) != nil {
		t.Fatal("nil input must return nil")
	}
}

func TestDeltaDecodeRejectsGarbage(t *testing.T) {
	ref := gradientImage(64, 32)
	if _, err := DeltaDecode(nil, ref); err == nil {
		t.Fatal("expected error for empty input")
	}
	if _, err := DeltaDecode([]byte{1, 2, 3}, ref); err == nil {
		t.Fatal("expected error for bad magic")
	}
	if _, err := DeltaDecode(Encode(ref, DefaultCRF), ref); err == nil {
		t.Fatal("expected error when handed an intra stream")
	}
	delta := DeltaEncode(ref, ref, DefaultCRF)
	if _, err := Decode(delta); err == nil {
		t.Fatal("Decode must reject a delta stream")
	}
	if _, err := DeltaDecode(delta, nil); err == nil {
		t.Fatal("expected error for nil reference")
	}
	if _, err := DeltaDecode(delta, gradientImage(64, 48)); err == nil {
		t.Fatal("expected error for mismatched reference dimensions")
	}
	rng := rand.New(rand.NewSource(13))
	busy := DeltaEncode(offsetImage(rng, ref, 5), ref, DefaultCRF)
	if _, err := DeltaDecode(busy[:len(busy)/4], ref); err == nil {
		t.Fatal("expected error for truncated stream")
	}
}

func TestDeltaDecodeNeverPanicsOnCorruption(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	ref := gradientImage(48, 40)
	cur := offsetImage(rng, ref, 4)
	data := DeltaEncode(cur, ref, DefaultCRF)
	for trial := 0; trial < 300; trial++ {
		corrupted := append([]byte(nil), data...)
		for k := 0; k < 1+rng.Intn(4); k++ {
			corrupted[rng.Intn(len(corrupted))] ^= byte(1 << rng.Intn(8))
		}
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("delta decode panicked on corrupted input: %v", r)
				}
			}()
			g, err := DeltaDecode(corrupted, ref)
			if err == nil {
				ReleaseGray(g)
			}
		}()
	}
}

// TestDeltaMatchesIntraQualityAcrossGames is the acceptance bar of the
// delta path: for every catalog game, serving a nearby frame as a delta
// against a held reference must cost no more than 0.01 SSIM versus
// serving it intra-coded. Frames are rendered exactly the way the server
// pipeline produces them — the reference is the *decoded reconstruction*
// of the reference point's intra frame, and the delta encodes the current
// frame's own intra reconstruction (the canonical-reference rule, so the
// client and server agree bit-for-bit on the prediction source).
func TestDeltaMatchesIntraQualityAcrossGames(t *testing.T) {
	for _, spec := range games.Catalog() {
		spec := spec
		t.Run(spec.Name, func(t *testing.T) {
			t.Parallel()
			g, err := games.BuildByName(spec.Name)
			if err != nil {
				t.Fatal(err)
			}
			r := render.New(g.Scene, render.Config{W: 96, H: 48})
			eyeA := g.Scene.EyeAt(g.Spawn)
			eyeB := g.Scene.EyeAt(g.Spawn.Add(geom.V2(0.5, 0.25)))

			ref, err := Decode(Encode(r.Panorama(eyeA, 0, 1e18, nil), DefaultCRF))
			if err != nil {
				t.Fatal(err)
			}
			gt := r.Panorama(eyeB, 0, 1e18, nil)
			intraRecon, err := Decode(Encode(gt, DefaultCRF))
			if err != nil {
				t.Fatal(err)
			}
			delta := DeltaEncode(intraRecon, ref, DefaultCRF)
			if delta == nil {
				t.Fatal("DeltaEncode returned nil for matched dimensions")
			}
			deltaRecon, err := DeltaDecode(delta, ref)
			if err != nil {
				t.Fatal(err)
			}
			sIntra, err := ssim.Mean(gt, intraRecon)
			if err != nil {
				t.Fatal(err)
			}
			sDelta, err := ssim.Mean(gt, deltaRecon)
			if err != nil {
				t.Fatal(err)
			}
			if d := sIntra - sDelta; d > 0.01 || d < -0.01 {
				t.Fatalf("delta quality drifted: intra SSIM %.4f vs delta SSIM %.4f", sIntra, sDelta)
			}
			t.Logf("%s: intra SSIM %.4f (%d B), delta SSIM %.4f (%d B)",
				spec.Name, sIntra, len(Encode(gt, DefaultCRF)), sDelta, len(delta))
		})
	}
}

// TestDecodeAllocationFree pins the pooled decode path: once the freelist
// is warm, Decode + ReleaseGray must not allocate, and the same holds for
// DeltaDecode. This is the per-frame hot path of every live client.
func TestDecodeAllocationFree(t *testing.T) {
	src := gradientImage(128, 64)
	intra := Encode(src, DefaultCRF)
	ref, err := Decode(intra)
	if err != nil {
		t.Fatal(err)
	}
	delta := DeltaEncode(ref, ref, DefaultCRF)

	// Warm the freelist.
	for i := 0; i < 3; i++ {
		g, err := Decode(intra)
		if err != nil {
			t.Fatal(err)
		}
		ReleaseGray(g)
	}
	if n := testing.AllocsPerRun(50, func() {
		g, err := Decode(intra)
		if err != nil {
			t.Fatal(err)
		}
		ReleaseGray(g)
	}); n > 0 {
		t.Errorf("Decode allocates %.1f objects per call at steady state, want 0", n)
	}
	if n := testing.AllocsPerRun(50, func() {
		g, err := DeltaDecode(delta, ref)
		if err != nil {
			t.Fatal(err)
		}
		ReleaseGray(g)
	}); n > 0 {
		t.Errorf("DeltaDecode allocates %.1f objects per call at steady state, want 0", n)
	}
	ReleaseGray(ref)
}

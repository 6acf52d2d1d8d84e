package codec

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"coterie/internal/img"
	"coterie/internal/ssim"
)

func flatImage(w, h int, v uint8) *img.Gray {
	g := img.NewGray(w, h)
	for i := range g.Pix {
		g.Pix[i] = v
	}
	return g
}

func gradientImage(w, h int) *img.Gray {
	g := img.NewGray(w, h)
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			g.Set(x, y, uint8((x*255/w+y*255/h)/2))
		}
	}
	return g
}

func noisyImage(rng *rand.Rand, w, h int) *img.Gray {
	g := img.NewGray(w, h)
	for i := range g.Pix {
		g.Pix[i] = uint8(rng.Intn(256))
	}
	return g
}

func TestRoundTripDimensions(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, dims := range [][2]int{{8, 8}, {16, 8}, {33, 17}, {64, 48}, {100, 51}} {
		src := noisyImage(rng, dims[0], dims[1])
		data := Encode(src, DefaultCRF)
		dec, err := Decode(data)
		if err != nil {
			t.Fatalf("%v: %v", dims, err)
		}
		if dec.W != src.W || dec.H != src.H {
			t.Fatalf("%v: decoded %dx%d", dims, dec.W, dec.H)
		}
	}
}

func TestFlatImageCompressesHard(t *testing.T) {
	src := flatImage(128, 64, 140)
	data := Encode(src, DefaultCRF)
	if len(data) > src.W*src.H/32 {
		t.Fatalf("flat image encoded to %d bytes (raw %d)", len(data), src.W*src.H)
	}
	dec, err := Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	mad, _ := img.MeanAbsDiff(src, dec)
	if mad > 2 {
		t.Fatalf("flat image MAD = %v", mad)
	}
}

func TestQualityAtCRF0(t *testing.T) {
	src := gradientImage(64, 64)
	dec, err := Decode(Encode(src, 0))
	if err != nil {
		t.Fatal(err)
	}
	mad, _ := img.MeanAbsDiff(src, dec)
	if mad > 1.5 {
		t.Fatalf("near-lossless MAD = %v", mad)
	}
}

func TestPaperCRFKeepsGoodSSIM(t *testing.T) {
	// The server encodes far-BE frames at CRF 25; the result must still be
	// "good" (SSIM > 0.9) for Table 7's Coterie quality numbers to hold.
	rng := rand.New(rand.NewSource(2))
	src := img.NewGray(96, 64)
	// Structured content: blobs over a gradient.
	for y := 0; y < src.H; y++ {
		for x := 0; x < src.W; x++ {
			src.Set(x, y, uint8(40+x+y/2))
		}
	}
	for i := 0; i < 15; i++ {
		cx, cy := rng.Intn(src.W), rng.Intn(src.H)
		v := uint8(60 + rng.Intn(140))
		for dy := -3; dy <= 3; dy++ {
			for dx := -3; dx <= 3; dx++ {
				x, y := cx+dx, cy+dy
				if x >= 0 && y >= 0 && x < src.W && y < src.H && dx*dx+dy*dy <= 9 {
					src.Set(x, y, v)
				}
			}
		}
	}
	dec, err := Decode(Encode(src, DefaultCRF))
	if err != nil {
		t.Fatal(err)
	}
	s, err := ssim.Mean(src, dec)
	if err != nil {
		t.Fatal(err)
	}
	if s < 0.9 {
		t.Fatalf("CRF %d SSIM = %v, want >= 0.9", DefaultCRF, s)
	}
}

func TestSizeGrowsWithComplexity(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	flat := len(Encode(flatImage(96, 96, 90), DefaultCRF))
	grad := len(Encode(gradientImage(96, 96), DefaultCRF))
	noise := len(Encode(noisyImage(rng, 96, 96), DefaultCRF))
	if !(flat < grad && grad < noise) {
		t.Fatalf("sizes should grow with complexity: flat %d, gradient %d, noise %d", flat, grad, noise)
	}
}

func TestSizeShrinksWithCRF(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	src := noisyImage(rng, 96, 96)
	prev := len(Encode(src, 0))
	for _, crf := range []int{15, 30, 45} {
		n := len(Encode(src, crf))
		if n >= prev {
			t.Fatalf("size did not shrink at CRF %d: %d >= %d", crf, n, prev)
		}
		prev = n
	}
}

func TestDecodeRejectsGarbage(t *testing.T) {
	if _, err := Decode(nil); err == nil {
		t.Fatal("expected error for empty input")
	}
	if _, err := Decode([]byte{1, 2, 3}); err == nil {
		t.Fatal("expected error for bad magic")
	}
	// Valid header, truncated body.
	src := gradientImage(64, 64)
	data := Encode(src, DefaultCRF)
	if _, err := Decode(data[:len(data)/4]); err == nil {
		t.Fatal("expected error for truncated stream")
	}
}

func TestCRFClamped(t *testing.T) {
	src := gradientImage(32, 32)
	for _, crf := range []int{-10, 200} {
		if _, err := Decode(Encode(src, crf)); err != nil {
			t.Fatalf("CRF %d: %v", crf, err)
		}
	}
}

func TestRoundTripPropertyRandomImages(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	f := func() bool {
		w := 8 + rng.Intn(64)
		h := 8 + rng.Intn(64)
		src := img.NewGray(w, h)
		// Structured random: random blocks, compressible.
		for y := 0; y < h; y++ {
			for x := 0; x < w; x++ {
				src.Set(x, y, uint8((x/4)*40+(y/4)*17))
			}
		}
		dec, err := Decode(Encode(src, 10))
		if err != nil {
			return false
		}
		mad, _ := img.MeanAbsDiff(src, dec)
		return mad < 8
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func TestBitIORoundTrip(t *testing.T) {
	w := &bitWriter{}
	// 1<<28 - 2 is the longest code written as one word (55 bits), the
	// next value the first written as zeros + value.
	values := []uint32{0, 1, 2, 3, 100, 65535, 1 << 20, 1<<28 - 2, 1<<28 - 1, math.MaxUint32}
	svalues := []int32{0, -1, 1, -2, 2, 1000, -99999, math.MaxInt32, -math.MaxInt32}
	for _, v := range values {
		w.writeUE(v)
	}
	for _, v := range svalues {
		w.writeSE(v)
	}
	w.writeBits(0xAB, 8)
	data := w.bytes()
	r := &bitReader{buf: data}
	for _, v := range values {
		got, err := r.readUE()
		if err != nil || got != v {
			t.Fatalf("readUE = %v,%v want %v", got, err, v)
		}
	}
	for _, v := range svalues {
		got, err := r.readSE()
		if err != nil || got != v {
			t.Fatalf("readSE = %v,%v want %v", got, err, v)
		}
	}
	got, err := r.readBits(8)
	if err != nil || got != 0xAB {
		t.Fatalf("readBits = %x,%v", got, err)
	}
}

func TestBitIOQuickRoundTrip(t *testing.T) {
	f := func(vals []uint32) bool {
		w := &bitWriter{}
		for _, v := range vals {
			w.writeUE(v % (1 << 24))
		}
		r := &bitReader{buf: w.bytes()}
		for _, v := range vals {
			got, err := r.readUE()
			if err != nil || got != v%(1<<24) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestDCTRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	var src, freq, back [64]float64
	for i := range src {
		src[i] = float64(rng.Intn(256)) - 128
	}
	fdct8x8(&src, &freq)
	idct8x8(&freq, &back)
	for i := range src {
		if d := src[i] - back[i]; d > 1e-8 || d < -1e-8 {
			t.Fatalf("DCT round trip error at %d: %v vs %v", i, src[i], back[i])
		}
	}
}

func TestZigzagIsPermutation(t *testing.T) {
	seen := [64]bool{}
	for _, z := range zigzag {
		if z < 0 || z > 63 || seen[z] {
			t.Fatalf("zigzag not a permutation: %v", zigzag)
		}
		seen[z] = true
	}
}

func TestQuantTableMonotoneInCRF(t *testing.T) {
	q0 := quantTable(0)
	q25 := quantTable(25)
	q51 := quantTable(51)
	for i := 0; i < 64; i++ {
		if !(q0[i] <= q25[i] && q25[i] <= q51[i]) {
			t.Fatalf("quant[%d] not monotone: %v %v %v", i, q0[i], q25[i], q51[i])
		}
		if q0[i] < 1 {
			t.Fatalf("quant[%d] < 1", i)
		}
	}
}

func TestDecodeNeverPanicsOnCorruption(t *testing.T) {
	// Robustness: bit flips in a valid stream must produce an error or a
	// (wrong) image, never a panic or a runaway allocation.
	rng := rand.New(rand.NewSource(99))
	src := gradientImage(48, 40)
	data := Encode(src, DefaultCRF)
	for trial := 0; trial < 300; trial++ {
		corrupted := append([]byte(nil), data...)
		for k := 0; k < 1+rng.Intn(4); k++ {
			corrupted[rng.Intn(len(corrupted))] ^= byte(1 << rng.Intn(8))
		}
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("decode panicked on corrupted input: %v", r)
				}
			}()
			img, err := Decode(corrupted)
			if err == nil && (img.W != 48 || img.H != 40) && (img.W > 1<<15 || img.H > 1<<15) {
				t.Fatalf("implausible decode result %dx%d", img.W, img.H)
			}
		}()
	}
}

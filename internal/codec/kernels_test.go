package codec

import (
	"hash/fnv"
	"math"
	"math/rand"
	"testing"

	"coterie/internal/games"
	"coterie/internal/geom"
	"coterie/internal/img"
	"coterie/internal/render"
)

// The transform kernels this package shipped until ISSUE 20, kept verbatim
// as the oracle: one serial multiply-accumulate chain per output. The
// production kernels (dct.go) must produce the same float64 bit pattern for
// every output of every block.

func fdct8x8Naive(src, dst *[64]float64) {
	var tmp [64]float64
	// Rows.
	for y := 0; y < blockSize; y++ {
		for u := 0; u < blockSize; u++ {
			var s float64
			for x := 0; x < blockSize; x++ {
				s += src[y*blockSize+x] * dctCosA[u][x]
			}
			tmp[y*blockSize+u] = s
		}
	}
	// Columns.
	for u := 0; u < blockSize; u++ {
		for v := 0; v < blockSize; v++ {
			var s float64
			for y := 0; y < blockSize; y++ {
				s += tmp[y*blockSize+u] * dctCosA[v][y]
			}
			dst[v*blockSize+u] = s
		}
	}
}

func idct8x8Naive(src, dst *[64]float64) {
	var tmp [64]float64
	// Columns.
	for u := 0; u < blockSize; u++ {
		for y := 0; y < blockSize; y++ {
			var s float64
			for v := 0; v < blockSize; v++ {
				s += src[v*blockSize+u] * dctCosA[v][y]
			}
			tmp[y*blockSize+u] = s
		}
	}
	// Rows.
	for y := 0; y < blockSize; y++ {
		for x := 0; x < blockSize; x++ {
			var s float64
			for u := 0; u < blockSize; u++ {
				s += tmp[y*blockSize+u] * dctCosA[u][x]
			}
			dst[y*blockSize+x] = s
		}
	}
}

// kernelBlocks are the four input distributions the codec feeds its
// kernels: level-shifted pixels (Encode), sparse dequantised coefficients
// (Decode / DeltaDecode), ±1 residuals with most entries zero
// (DeltaEncode between similar frames), and unstructured Gaussian values.
var kernelBlocks = []struct {
	name string
	fill func(rng *rand.Rand, b *[64]float64)
}{
	{"pixels", func(rng *rand.Rand, b *[64]float64) {
		for i := range b {
			b[i] = float64(rng.Intn(256)) - 128
		}
	}},
	{"sparse-coefficients", func(rng *rand.Rand, b *[64]float64) {
		*b = [64]float64{}
		b[rng.Intn(64)] = math.Copysign(0, -1) // a zero the sparse inverse skips too
		q := quantTable(rng.Intn(52))
		for n := rng.Intn(9); n > 0; n-- {
			i := zigzag[rng.Intn(1+rng.Intn(64))]
			b[i] = float64(rng.Intn(41)-20) * q[i]
		}
	}},
	{"residuals", func(rng *rand.Rand, b *[64]float64) {
		for i := range b {
			b[i] = 0
			if rng.Intn(4) == 0 {
				b[i] = float64(rng.Intn(3) - 1)
			}
		}
	}},
	{"gaussian", func(rng *rand.Rand, b *[64]float64) {
		for i := range b {
			b[i] = rng.NormFloat64() * 50
		}
	}},
}

// TestDCTKernelsBitIdentical is the exactness guard of the accumulator
// layout: the kernels sum the same eight products in the same order as the
// naive loops, so every output must match to the last bit — which is what
// keeps every stream and every decoded raster byte-identical.
func TestDCTKernelsBitIdentical(t *testing.T) {
	const blocksPerKind = 25000 // × 4 kinds, each through both kernels
	rng := rand.New(rand.NewSource(20))
	var src, want, got [64]float64
	for _, kind := range kernelBlocks {
		for n := 0; n < blocksPerKind; n++ {
			kind.fill(rng, &src)
			fdct8x8Naive(&src, &want)
			fdct8x8(&src, &got)
			for i := range want {
				if math.Float64bits(want[i]) != math.Float64bits(got[i]) {
					t.Fatalf("%s block %d: fdct8x8[%d] = %x (%g), naive %x (%g)", kind.name, n, i,
						math.Float64bits(got[i]), got[i], math.Float64bits(want[i]), want[i])
				}
			}
			idct8x8Naive(&src, &want)
			idct8x8(&src, &got)
			for i := range want {
				if math.Float64bits(want[i]) != math.Float64bits(got[i]) {
					t.Fatalf("%s block %d: idct8x8[%d] = %x (%g), naive %x (%g)", kind.name, n, i,
						math.Float64bits(got[i]), got[i], math.Float64bits(want[i]), want[i])
				}
			}
		}
	}
}

// streamHashes are FNV-64a digests over what the codec produces for one
// raster size: Encode bytes of 16 scattered viking far-BE panoramas, Decode
// pixels of those streams, DeltaEncode bytes of 16 neighbour pairs (coded
// between reconstructions, as the server does) and DeltaDecode pixels.
type streamHashes struct{ intra, intraPix, delta, deltaPix uint64 }

// TestStreamsUnchanged pins the codec's output: the digests below were
// computed at the commit before ISSUE 20 touched the kernels, the bit I/O
// and the block load/store paths. A change that moves one of them changed
// the frames every client sees and every byte count the benchmark reports.
func TestStreamsUnchanged(t *testing.T) {
	g, err := games.BuildByName("viking")
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		w, h int
		want streamHashes
	}{
		{256, 128, streamHashes{0x479daa24f9ed76c, 0x9891709d4a51cd5a, 0x452d906375ed428d, 0xadc0414b6b2698b9}},
		// 12.5 × 6.5 blocks: the edge-clamp paths.
		{100, 52, streamHashes{0x972ab1df6e0c6c00, 0x31e67db1a8ac6636, 0x98bade2c9b4701bc, 0x72a525e3a945af74}},
	} {
		r := render.New(g.Scene, render.Config{W: tc.w, H: tc.h})
		rng := rand.New(rand.NewSource(3))
		b := g.Scene.Bounds
		intra, intraPix, delta, deltaPix := fnv.New64a(), fnv.New64a(), fnv.New64a(), fnv.New64a()
		farBE := func(p geom.Vec2) *img.Gray {
			return r.Panorama(g.Scene.EyeAt(p), 6, math.Inf(1), nil)
		}
		for i := 0; i < 16; i++ {
			p := geom.V2(b.MinX+rng.Float64()*b.Width(), b.MinZ+rng.Float64()*b.Depth())
			near := b.ClampPoint(p.Add(geom.V2(rng.Float64()-0.5, rng.Float64()-0.5)))

			data := Encode(farBE(p), DefaultCRF)
			intra.Write(data)
			ref, err := Decode(data)
			if err != nil {
				t.Fatal(err)
			}
			intraPix.Write(ref.Pix)

			cur, err := Decode(Encode(farBE(near), DefaultCRF))
			if err != nil {
				t.Fatal(err)
			}
			d := DeltaEncode(cur, ref, DefaultCRF)
			delta.Write(d)
			out, err := DeltaDecode(d, ref)
			if err != nil {
				t.Fatal(err)
			}
			deltaPix.Write(out.Pix)
		}
		got := streamHashes{intra.Sum64(), intraPix.Sum64(), delta.Sum64(), deltaPix.Sum64()}
		if got != tc.want {
			t.Errorf("%dx%d: stream digests %#x, pinned %#x", tc.w, tc.h, got, tc.want)
		}
	}
}

// repeatFrames are the rasters at the edges of the repeated-block
// shortcuts: Encode reuses an interior block's coefficients when its pixel
// rows equal its left neighbour's, Decode reuses a reconstruction when a
// block's coefficients equal the previous block's.
//   - quad: 100x60, every pixel row A[x%4]. Every interior block repeats its
//     left neighbour. At the right edge (x0 = 96) the four in-bounds pixels,
//     and the raw 8-byte row slice that runs on into the next pixel row,
//     equal the left neighbour's rows and block (0, by)'s, but the block the
//     encoder loads replicates its border and equals neither.
//   - period8: 100x60, B[x%8] plus a row ramp: interior blocks repeat, the
//     edge block's valid four columns equal its left neighbour's first
//     four, and every block row has its own DC.
//   - wrap: 64x48 of distinct blocks, except that block (0, by) is a copy of
//     block (7, by-1), the previous block in scan order.
//   - steps: 64x16, B[x%8] plus a step per block column: neighbours share
//     every AC coefficient and differ in DC.
//   - flat: 100x60 of one value, edge blocks included.
func repeatFrames() map[string]*img.Gray {
	steps := img.NewGray(64, 16)
	for y := 0; y < 16; y++ {
		for x := 0; x < 64; x++ {
			steps.Set(x, y, [8]uint8{10, 90, 30, 160, 190, 40, 130, 70}[x%8]+uint8(8*(x/8)))
		}
	}
	quad := img.NewGray(100, 60)
	period8 := img.NewGray(100, 60)
	for y := 0; y < 60; y++ {
		for x := 0; x < 100; x++ {
			quad.Set(x, y, [4]uint8{20, 200, 60, 240}[x%4])
			period8.Set(x, y, [8]uint8{10, 90, 30, 160, 190, 40, 130, 70}[x%8]+uint8(y))
		}
	}
	wrap := noisyImage(rand.New(rand.NewSource(32)), 64, 48)
	for y0 := 8; y0 < 48; y0 += 8 {
		for y := 0; y < 8; y++ {
			copy(wrap.Pix[(y0+y)*64:(y0+y)*64+8], wrap.Pix[(y0-8+y)*64+56:(y0-8+y)*64+64])
		}
	}
	return map[string]*img.Gray{"quad": quad, "period8": period8, "wrap": wrap, "steps": steps, "flat": flatImage(100, 60, 77)}
}

// TestRepeatedBlockStreamsUnchanged pins Encode's bytes and Decode's pixels
// of repeatFrames: FNV-64a digests computed at the commit before the
// repeated-block shortcuts. A shortcut taken on an edge block, or across a
// block row, moves one of them.
func TestRepeatedBlockStreamsUnchanged(t *testing.T) {
	want := map[string][2]uint64{
		"quad":    {0x4759829d550fff63, 0x6c6be3634673598d},
		"period8": {0x61b1dfafd42d796c, 0x5a762f0afb623117},
		"wrap":    {0xc2de3928c804a462, 0xce9e401c7de2f7cb},
		"steps":   {0x96641610ee77a3ff, 0xf334e00048930d45},
		"flat":    {0x2a2fd18fabb36590, 0x4a6a2b9418d05f55},
	}
	for name, g := range repeatFrames() {
		data := Encode(g, DefaultCRF)
		rec, err := Decode(data)
		if err != nil {
			t.Fatal(err)
		}
		stream, pix := fnv.New64a(), fnv.New64a()
		stream.Write(data)
		pix.Write(rec.Pix)
		ReleaseGray(rec)
		if got := [2]uint64{stream.Sum64(), pix.Sum64()}; got != want[name] {
			t.Errorf("%s: stream, reconstruction digests %#x, pinned %#x", name, got, want[name])
		}
	}
}

package codec

import (
	"math"
	"math/rand"
	"sync"
	"testing"

	"coterie/internal/cutoff"
	"coterie/internal/device"
	"coterie/internal/games"
	"coterie/internal/geom"
	"coterie/internal/img"
	"coterie/internal/render"
)

func benchImage(w, h int) *img.Gray {
	rng := rand.New(rand.NewSource(1))
	g := img.NewGray(w, h)
	// Structured content: gradient + soft blobs (compressible, like a
	// rendered panorama).
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			g.Set(x, y, uint8(40+x/3+y/2))
		}
	}
	for i := 0; i < w*h/400; i++ {
		cx, cy, v := rng.Intn(w), rng.Intn(h), uint8(rng.Intn(256))
		for dy := -4; dy <= 4; dy++ {
			for dx := -4; dx <= 4; dx++ {
				x, y := cx+dx, cy+dy
				if x >= 0 && y >= 0 && x < w && y < h {
					g.Set(x, y, v)
				}
			}
		}
	}
	return g
}

// vikingMisses are the frames the server encodes on a cold miss, as
// BenchmarkPanoramaFarGame (internal/render) casts them: 256x128 viking
// far-BE panoramas from 16 eyes scattered over the map, each clipped at its
// leaf's cutoff radius. The split keeps the eyes whose radius passes keep:
// sparse (radius > 15 m: ~95 % sky, the median cold miss) or dense.
func vikingMisses(b *testing.B, keep func(radius float64) bool) []*img.Gray {
	vikingOnce.Do(func() {
		if vikingGame, vikingErr = games.BuildByName("viking"); vikingErr == nil {
			vikingMap, vikingErr = cutoff.Compute(vikingGame.Scene, device.Pixel2().NearBERenderMs, cutoff.DefaultParams())
		}
	})
	if vikingErr != nil {
		b.Fatal(vikingErr)
	}
	g := vikingGame
	r := render.New(g.Scene, render.Config{W: 256, H: 128})
	rng := rand.New(rand.NewSource(14))
	var frames []*img.Gray
	for len(frames) < 16 {
		bd := g.Scene.Bounds
		p := geom.V2(bd.MinX+rng.Float64()*bd.Width(), bd.MinZ+rng.Float64()*bd.Depth())
		if radius := vikingMap.RadiusAt(p); keep(radius) {
			frames = append(frames, r.Panorama(g.Scene.EyeAt(p), radius, math.Inf(1), nil))
		}
	}
	return frames
}

// The viking cutoff map takes seconds to compute: once per process, across
// the testing package's b.N escalation and every codec benchmark.
var (
	vikingOnce sync.Once
	vikingGame *games.Game
	vikingMap  *cutoff.Map
	vikingErr  error
)

// vikingSplits runs bench over the whole viking miss mix and its sparse and
// dense halves, which differ in sky share and so in repeated blocks.
func vikingSplits(b *testing.B, bench func(b *testing.B, frames []*img.Gray)) {
	for _, sc := range []struct {
		name string
		keep func(radius float64) bool
	}{
		{"all", func(float64) bool { return true }},
		{"sparse", func(r float64) bool { return r > 15 }},
		{"dense", func(r float64) bool { return r <= 15 }},
	} {
		b.Run(sc.name, func(b *testing.B) { bench(b, vikingMisses(b, sc.keep)) })
	}
}

// benchEncode encodes the frames in turn; one op is one frame.
func benchEncode(b *testing.B, frames []*img.Gray) {
	b.ReportAllocs()
	b.SetBytes(int64(frames[0].W * frames[0].H))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Encode(frames[i%len(frames)], DefaultCRF)
	}
}

// benchDecode decodes the frames' streams in turn and releases every
// raster, like the server and client paths do: the number is the decode,
// not a 32 KB allocation per frame.
func benchDecode(b *testing.B, frames []*img.Gray) {
	streams := make([][]byte, len(frames))
	for i, f := range frames {
		streams[i] = Encode(f, DefaultCRF)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g, err := Decode(streams[i%len(streams)])
		if err != nil {
			b.Fatal(err)
		}
		ReleaseGray(g)
	}
}

func BenchmarkEncode256x128(b *testing.B) { benchEncode(b, []*img.Gray{benchImage(256, 128)}) }
func BenchmarkDecode256x128(b *testing.B) { benchDecode(b, []*img.Gray{benchImage(256, 128)}) }
func BenchmarkEncodeViking(b *testing.B)  { vikingSplits(b, benchEncode) }
func BenchmarkDecodeViking(b *testing.B)  { vikingSplits(b, benchDecode) }

// benchKernel times one transform over pixel-range blocks (fdct8x8's input
// in Encode) or sparse dequantised coefficients (idct8x8's in Decode).
func benchKernel(b *testing.B, kind string, kernel func(src, dst *[64]float64)) {
	rng := rand.New(rand.NewSource(1))
	var blocks [64][64]float64
	for _, k := range kernelBlocks {
		if k.name == kind {
			for i := range blocks {
				k.fill(rng, &blocks[i])
			}
		}
	}
	var dst [64]float64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		kernel(&blocks[i%len(blocks)], &dst)
	}
}

func BenchmarkFDCT(b *testing.B) { benchKernel(b, "pixels", fdct8x8) }
func BenchmarkIDCT(b *testing.B) { benchKernel(b, "sparse-coefficients", idct8x8) }

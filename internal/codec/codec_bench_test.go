package codec

import (
	"math"
	"math/rand"
	"testing"

	"coterie/internal/games"
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

// vikingFarBE is the frame the server encodes on a cold miss: a 256x128
// viking far-BE panorama (near cutoff 6 m) from the spawn point.
func vikingFarBE(b *testing.B) *img.Gray {
	g, err := games.BuildByName("viking")
	if err != nil {
		b.Fatal(err)
	}
	r := render.New(g.Scene, render.Config{W: 256, H: 128, Parallel: 1})
	return r.Panorama(g.Scene.EyeAt(g.Spawn), 6, math.Inf(1), nil)
}

func benchEncode(b *testing.B, src *img.Gray) {
	b.ReportAllocs()
	b.SetBytes(int64(src.W * src.H))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Encode(src, DefaultCRF)
	}
}

// benchDecode releases every raster, like the server and client paths do:
// the number is the decode, not a 32 KB allocation per frame.
func benchDecode(b *testing.B, data []byte) {
	b.ReportAllocs()
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g, err := Decode(data)
		if err != nil {
			b.Fatal(err)
		}
		ReleaseGray(g)
	}
}

func BenchmarkEncode256x128(b *testing.B) { benchEncode(b, benchImage(256, 128)) }
func BenchmarkDecode256x128(b *testing.B) { benchDecode(b, Encode(benchImage(256, 128), DefaultCRF)) }
func BenchmarkEncodeViking(b *testing.B)  { benchEncode(b, vikingFarBE(b)) }
func BenchmarkDecodeViking(b *testing.B)  { benchDecode(b, Encode(vikingFarBE(b), DefaultCRF)) }

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

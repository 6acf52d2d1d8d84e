package render_test

import (
	"math"
	"math/rand"
	"testing"

	"coterie/internal/cutoff"
	"coterie/internal/device"
	"coterie/internal/games"
	"coterie/internal/geom"
	"coterie/internal/render"
)

// BenchmarkPanoramaFarGame is the ray-cast a cold server miss pays: the
// far-BE panorama of a real game, clipped at the cutoff radius of the
// viewpoint's leaf, from eyes scattered over the map. The synthetic
// BenchmarkPanorama* scenes above are several times cheaper than these and
// all look from the world centre. One op is one frame; eyes rotate.
func BenchmarkPanoramaFarGame(b *testing.B) {
	for _, name := range []string{"viking", "racing", "pool"} {
		// The cutoff map takes seconds to compute; keep it across the
		// testing package's b.N escalation.
		var g *games.Game
		var m *cutoff.Map
		b.Run(name, func(b *testing.B) {
			if m == nil {
				var err error
				if g, err = games.BuildByName(name); err != nil {
					b.Fatal(err)
				}
				if m, err = cutoff.Compute(g.Scene, device.Pixel2().NearBERenderMs, cutoff.DefaultParams()); err != nil {
					b.Fatal(err)
				}
			}
			r := render.New(g.Scene, render.Config{W: 256, H: 128, Parallel: 1})
			rng := rand.New(rand.NewSource(14))
			eyes := make([]geom.Vec3, 16)
			radii := make([]float64, len(eyes))
			for i := range eyes {
				bd := g.Scene.Bounds
				p := geom.V2(bd.MinX+rng.Float64()*bd.Width(), bd.MinZ+rng.Float64()*bd.Depth())
				eyes[i], radii[i] = g.Scene.EyeAt(p), m.RadiusAt(p)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				k := i % len(eyes)
				r.ReleaseGray(r.Panorama(eyes[k], radii[k], math.Inf(1), nil))
			}
		})
	}
}

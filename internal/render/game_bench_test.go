package render_test

import (
	"math"
	"math/rand"
	"sort"
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
//
// viking averages two regimes that differ 3x, so it is also split on the
// leaf radius: viking-sparse (radius > 15 m: ~95 % sky) and viking-dense
// (the rest: object pixels and their shading). viking-median is the
// frames that decide a cold miss's median: the middle fifth of 200
// scattered eyes ranked by leaf radius (ties by draw order).
func BenchmarkPanoramaFarGame(b *testing.B) {
	all := func(float64) bool { return true }
	const medianDraws = 200
	type built struct {
		g *games.Game
		m *cutoff.Map
	}
	// The cutoff map takes seconds to compute; keep it across the testing
	// package's b.N escalation and across the sub-benchmarks of one game.
	maps := map[string]built{}
	for _, bc := range []struct {
		name, game string
		keep       func(radius float64) bool
		median     bool
	}{
		{"viking", "viking", all, false},
		{"viking-sparse", "viking", func(r float64) bool { return r > 15 }, false},
		{"viking-dense", "viking", func(r float64) bool { return r <= 15 }, false},
		{"viking-median", "viking", all, true},
		{"racing", "racing", all, false},
		{"pool", "pool", all, false},
	} {
		b.Run(bc.name, func(b *testing.B) {
			gm, ok := maps[bc.game]
			if !ok {
				var err error
				if gm.g, err = games.BuildByName(bc.game); err != nil {
					b.Fatal(err)
				}
				if gm.m, err = cutoff.Compute(gm.g.Scene, device.Pixel2().NearBERenderMs, cutoff.DefaultParams()); err != nil {
					b.Fatal(err)
				}
				maps[bc.game] = gm
			}
			g, m := gm.g, gm.m
			r := render.New(g.Scene, render.Config{W: 256, H: 128})
			rng := rand.New(rand.NewSource(14))
			var eyes []geom.Vec3
			var radii []float64
			n := 16
			if bc.median {
				n = medianDraws
			}
			for len(eyes) < n {
				bd := g.Scene.Bounds
				p := geom.V2(bd.MinX+rng.Float64()*bd.Width(), bd.MinZ+rng.Float64()*bd.Depth())
				if radius := m.RadiusAt(p); bc.keep(radius) {
					eyes, radii = append(eyes, g.Scene.EyeAt(p)), append(radii, radius)
				}
			}
			if bc.median {
				rank := make([]int, n)
				for i := range rank {
					rank[i] = i
				}
				sort.SliceStable(rank, func(a, b int) bool { return radii[rank[a]] < radii[rank[b]] })
				var me []geom.Vec3
				var mr []float64
				for _, i := range rank[2*n/5 : 3*n/5] {
					me, mr = append(me, eyes[i]), append(mr, radii[i])
				}
				eyes, radii = me, mr
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

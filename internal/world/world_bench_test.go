package world

import (
	"math"
	"math/rand"
	"testing"

	"coterie/internal/geom"
)

func benchWorld(n int) *Scene {
	rng := rand.New(rand.NewSource(7))
	objs := make([]Object, n)
	for i := range objs {
		objs[i] = Object{
			ID: i, Kind: KindSphere,
			Center:    geom.V3(rng.Float64()*200, rng.Float64()*3, rng.Float64()*200),
			Radius:    0.3 + rng.Float64()*1.5,
			Triangles: 1000,
		}
	}
	return New("bench", geom.NewRect(200, 200), 0.5, objs, 10)
}

func BenchmarkIntersect(b *testing.B) {
	s := benchWorld(2000)
	q := s.NewQuery()
	rng := rand.New(rand.NewSource(8))
	rays := make([]geom.Ray, 256)
	for i := range rays {
		rays[i] = geom.Ray{
			Origin:    geom.V3(rng.Float64()*200, 1.7, rng.Float64()*200),
			Direction: geom.V3(rng.NormFloat64(), rng.NormFloat64()*0.2, rng.NormFloat64()).Norm(),
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Intersect(q, rays[i%len(rays)], 0, math.Inf(1))
	}
}

func BenchmarkTrianglesWithinSmall(b *testing.B) {
	s := benchWorld(2000)
	q := s.NewQuery()
	p := geom.V2(100, 100)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.TrianglesWithin(q, p, 5)
	}
}

func BenchmarkTrianglesWithinLarge(b *testing.B) {
	s := benchWorld(2000)
	q := s.NewQuery()
	p := geom.V2(100, 100)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.TrianglesWithin(q, p, 60)
	}
}

func BenchmarkNearSetSignature(b *testing.B) {
	s := benchWorld(2000)
	q := s.NewQuery()
	p := geom.V2(100, 100)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.NearSetSignature(q, p, 10)
	}
}

// BenchmarkGatherFrame is the panorama ray-cast's gather for one frame:
// bin the world for an eye and a window, then gather all 256 columns of a
// 256 x 128 panorama, from scattered eyes. far is a far-BE window (8 m to
// infinity: every object is binned); near a near-BE one (0 to 8 m: only
// the objects the index lists within reach). One op is one frame, one
// part, serial.
func BenchmarkGatherFrame(b *testing.B) {
	s := benchWorld(2000)
	q := s.NewQuery()
	const w, h = 256, 128
	tan, cos, sin := columnRows(h)
	sinYaw, cosYaw := panoramaColumns(w)
	bins := NewBins(sinYaw, cosYaw, tan)
	rng := rand.New(rand.NewSource(9))
	eyes := make([]geom.Vec3, 16)
	for i := range eyes {
		eyes[i] = geom.V3(rng.Float64()*200, EyeHeight, rng.Float64()*200)
	}
	for _, bc := range []struct {
		name       string
		tMin, tMax float64
	}{
		{"far", 8, math.Inf(1)},
		{"near", 0, 8},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				col := Column{Eye: eyes[i%len(eyes)], Tan: tan, Cos: cos, Sin: sin, RowHi: h, TMin: bc.tMin, TMax: bc.tMax}
				s.Bin(bins, &col, 1)
				bins.Run(0)
				for x := 0; x < w; x++ {
					s.Gather(q, bins, x)
				}
			}
		})
	}
}

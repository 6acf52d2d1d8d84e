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

// BenchmarkGatherColumn is the per-column cost of the panorama ray-cast's
// one index walk: gather the candidates of a 128-row column over the whole
// world, from scattered eyes and yaws. A 256-wide frame pays it 256 times.
func BenchmarkGatherColumn(b *testing.B) {
	s := benchWorld(2000)
	q := s.NewQuery()
	const rows = 128
	tan, cos, _ := columnRows(rows)
	rng := rand.New(rand.NewSource(9))
	cols := make([]Column, 256)
	for i := range cols {
		yaw := rng.Float64() * 2 * math.Pi
		cols[i] = Column{
			Eye:    geom.V3(rng.Float64()*200, EyeHeight, rng.Float64()*200),
			SinYaw: math.Sin(yaw), CosYaw: math.Cos(yaw),
			Tan: tan, Cos: cos, RowHi: rows, TMin: 8, TMax: math.Inf(1),
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.GatherColumn(q, &cols[i%len(cols)])
	}
}

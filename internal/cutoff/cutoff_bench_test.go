package cutoff

import (
	"testing"

	"coterie/internal/games"
	"coterie/internal/geom"
)

// BenchmarkCompute is the whole adaptive cutoff search at the paper's
// parameters, as cmd/cutoffgen runs it (core.PrepareEnv loads its stored
// output instead), on viking (the world of the benchmark's cold
// workloads), pool (its warm ones) and fps.
func BenchmarkCompute(b *testing.B) {
	for _, name := range []string{"viking", "pool", "fps"} {
		spec, err := games.ByName(name)
		if err != nil {
			b.Fatal(err)
		}
		g := games.Build(spec)
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := Compute(g.Scene, rt(), DefaultParams()); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkLeafAt(b *testing.B) {
	m, err := Compute(twoZoneScene(), rt(), testParams())
	if err != nil {
		b.Fatal(err)
	}
	pts := make([]struct{ x, z float64 }, 64)
	for i := range pts {
		pts[i] = struct{ x, z float64 }{float64(i * 2 % 128), float64(i % 64)}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := pts[i%len(pts)]
		m.RadiusAt(geom.V2(p.x, p.z))
	}
}

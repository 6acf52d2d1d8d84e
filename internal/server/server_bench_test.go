package server

import (
	"math/rand"
	"testing"

	"coterie/internal/core"
	"coterie/internal/games"
	"coterie/internal/geom"
)

// BenchmarkColdMiss is the cold_scatter serve path without the wire: every
// FrameFor is a store miss — ray-cast, intra encode, store insert — on
// viking at the default 256x128. The points are 16 scattered anchors and
// the four grid steps after each; a fresh server every 80 iterations keeps
// every one of them a miss.
func BenchmarkColdMiss(b *testing.B) {
	spec, err := games.ByName("viking")
	if err != nil {
		b.Fatal(err)
	}
	env, err := core.PrepareEnv(spec, core.EnvOptions{ThresholdLeaves: 1, SizeSamples: 1})
	if err != nil {
		b.Fatal(err)
	}
	grid := env.Game.Scene.Grid
	rng := rand.New(rand.NewSource(1))
	var pts []geom.GridPoint
	for len(pts) < 80 {
		anchor := geom.GridPoint{I: rng.Intn(grid.Cols() - 5), J: rng.Intn(grid.Rows())}
		for step := 0; step < 5; step++ {
			pts = append(pts, geom.GridPoint{I: anchor.I + step, J: anchor.J})
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	var srv *Server
	for i := 0; i < b.N; i++ {
		if i%len(pts) == 0 {
			srv = New(env)
		}
		if _, err := srv.FrameFor(pts[i%len(pts)]); err != nil {
			b.Fatal(err)
		}
	}
}

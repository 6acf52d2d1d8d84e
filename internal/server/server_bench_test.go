package server

import (
	"math/rand"
	"testing"

	"coterie/internal/core"
	"coterie/internal/games"
	"coterie/internal/geom"
	"coterie/internal/transport"
)

// BenchmarkColdMiss is the cold_scatter serve path without the wire: every
// FrameFor is a store miss — ray-cast, intra encode, store insert — on
// viking at the default 256x128. The points are 16 scattered anchors and
// the four grid steps after each; a fresh server every 80 iterations keeps
// every one of them a miss. serial is one miss at a time, the idle server
// whose render fans out into every core; parallel is GOMAXPROCS goroutines
// missing at once through the environment's one renderer, where the pool
// has no idle core to fan into. Run with -cpu 1,2 (`make bench` does).
func BenchmarkColdMiss(b *testing.B) {
	spec, err := games.ByName("viking")
	if err != nil {
		b.Fatal(err)
	}
	env, err := core.PrepareEnv(spec, core.EnvOptions{SizeSamples: 1})
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
	b.Run("serial", func(b *testing.B) {
		b.ReportAllocs()
		var srv *Server
		for i := 0; i < b.N; i++ {
			if i%len(pts) == 0 {
				srv = New(env)
			}
			if _, err := srv.FrameFor(pts[i%len(pts)]); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("parallel", func(b *testing.B) {
		b.ReportAllocs()
		b.RunParallel(func(pb *testing.PB) {
			var srv *Server
			for i := 0; pb.Next(); i++ {
				if i%len(pts) == 0 {
					srv = New(env)
				}
				if _, err := srv.FrameFor(pts[i%len(pts)]); err != nil {
					b.Error(err) // Error, not Fatal: RunParallel calls this off the benchmark goroutine
					return
				}
			}
		})
	})
}

// BenchmarkStoreHit is what the frame store's one lock costs: a lookup of
// a resident frame (map read + LRU touch under the mutex) among 4,096
// resident 1 KB frames, from one goroutine and from GOMAXPROCS goroutines
// doing nothing else — the saturation bound, since a real hit spends
// ≈ 14 µs outside the lock. Run with -cpu 1,2 (`make bench` does).
func BenchmarkStoreHit(b *testing.B) {
	const resident = 4096
	st := newFrameStore()
	for i := 0; i < resident; i++ {
		pt := geom.GridPoint{I: i % 64, J: i / 64}
		_, _, c, _ := st.lookup(pt)
		st.complete(pt, c, make([]byte, 1024), nil)
	}
	hit := func(b *testing.B, i int) {
		i %= resident
		if _, ok, _, _ := st.lookup(geom.GridPoint{I: i % 64, J: i / 64}); !ok {
			b.Error("resident frame missed") // Error, not Fatal: RunParallel calls this off the benchmark goroutine
		}
	}
	b.Run("serial", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			hit(b, i*61) // 61 is coprime to 4096: a scattered walk over every frame
		}
	})
	b.Run("parallel", func(b *testing.B) {
		b.ReportAllocs()
		b.RunParallel(func(pb *testing.PB) {
			for i := rand.Intn(resident); pb.Next(); i += 61 {
				hit(b, i)
			}
		})
	})
}

// BenchmarkSessionHit is warm_walk's serve without the wire, with a full
// held set: one session holds MaxHeldRefs references (an 8×8 lattice two
// grid steps apart in the pool spawn's leaf) and asks for the 15×15
// points the lattice spans, each a store hit answered by a cached delta —
// a held point against itself, any other against its nearest held
// neighbour. What the reference rule costs per hit is nearestRef's scan.
func BenchmarkSessionHit(b *testing.B) {
	spec, err := games.ByName("pool")
	if err != nil {
		b.Fatal(err)
	}
	env, err := core.PrepareEnv(spec, core.EnvOptions{SizeSamples: 1})
	if err != nil {
		b.Fatal(err)
	}
	srv := New(env)
	spawn := env.Game.Scene.Grid.Snap(env.Game.Spawn)
	refs := &sessionRefs{}
	var pts []geom.GridPoint
	for dj := 0; dj < 15; dj++ {
		for di := 0; di < 15; di++ {
			pt := geom.GridPoint{I: spawn.I - 14 + di, J: spawn.J + 4 + dj}
			if _, err := srv.FrameFor(pt); err != nil {
				b.Fatal(err)
			}
			if di%2 == 0 && dj%2 == 0 {
				srv.hold(refs, pt)
			}
			pts = append(pts, pt)
		}
	}
	for _, pt := range pts { // warm the delta cache
		if res, err := srv.serve(frameReq{pt: pt, refs: refs}); err != nil || res.Kind != transport.FrameDelta {
			b.Fatalf("%v: kind %d, %v; every point must be a delta (pick another lattice)", pt, res.Kind, err)
		}
	}
	if refs.Len() != transport.MaxHeldRefs {
		b.Fatalf("%d references held, want %d", refs.Len(), transport.MaxHeldRefs)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := srv.serve(frameReq{pt: pts[i%len(pts)], refs: refs}); err != nil {
			b.Fatal(err)
		}
	}
}

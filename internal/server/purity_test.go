package server

import (
	"hash/fnv"
	"math/rand"
	"runtime"
	"testing"

	"coterie/internal/geom"
)

// TestFrameBytesIndependentOfRequestOrder is the property the store,
// overhearing and delta references all lean on: a frame's bytes
// are a function of its grid point alone. One region is rendered on fresh
// servers under several random request orders — half the points requested
// one by one in shuffled order, the rest filled in by a parallel
// PrerenderRegion — at GOMAXPROCS 1, 2 and 4 (prerender and render pool
// workers), and every point must hash identically on every server.
func TestFrameBytesIndependentOfRequestOrder(t *testing.T) {
	env := poolEnv(t)
	grid := env.Game.Scene.Grid
	c := grid.Snap(env.Game.Spawn)
	const half = 3 // (2*half+1)^2 = 49 points
	var pts []geom.GridPoint
	for dj := -half; dj <= half; dj++ {
		for di := -half; di <= half; di++ {
			pts = append(pts, geom.GridPoint{I: c.I + di, J: c.J + dj})
		}
	}
	lo, hi := grid.Pos(pts[0]), grid.Pos(pts[len(pts)-1])
	region := geom.Rect{MinX: lo.X, MinZ: lo.Z, MaxX: hi.X, MaxZ: hi.Z}

	want := make(map[geom.GridPoint]uint64, len(pts))
	const orders = 6
	for k := 0; k < orders; k++ {
		for _, workers := range []int{1, 2, 4} {
			setProcs(t, workers)
			srv := New(env)
			order := append([]geom.GridPoint(nil), pts...)
			rand.New(rand.NewSource(int64(k))).Shuffle(len(order), func(i, j int) {
				order[i], order[j] = order[j], order[i]
			})
			for _, pt := range order[:len(order)/2] {
				if _, err := srv.FrameFor(pt); err != nil {
					t.Fatal(err)
				}
			}
			stats, err := srv.PrerenderRegion(region, 1)
			if err != nil {
				t.Fatal(err)
			}
			if stats.Points != len(pts) {
				t.Fatalf("prerender covered %d points, want %d", stats.Points, len(pts))
			}
			for _, pt := range pts {
				data, err := srv.FrameFor(pt)
				if err != nil {
					t.Fatal(err)
				}
				h := fnv.New64a()
				h.Write(data)
				sum := h.Sum64()
				if prev, seen := want[pt]; !seen {
					want[pt] = sum
				} else if prev != sum {
					t.Fatalf("order %d, %d workers: point %v hashed %016x, first server hashed %016x",
						k, workers, pt, sum, prev)
				}
			}
			if _, rendered := srv.Stats(); rendered != int64(len(pts)) {
				t.Fatalf("order %d, %d workers: rendered %d frames, want %d", k, workers, rendered, len(pts))
			}
		}
	}
}

// setProcs sets GOMAXPROCS — every fan-out's width — to n for the rest of
// the test. Tests that call it must not be parallel: a non-parallel test
// never overlaps a parallel one.
func setProcs(t *testing.T, n int) {
	t.Helper()
	old := runtime.GOMAXPROCS(n)
	t.Cleanup(func() { runtime.GOMAXPROCS(old) })
}

package render

import (
	"bytes"
	"math"
	"runtime"
	"testing"

	"coterie/internal/games"
	"coterie/internal/geom"
	"coterie/internal/world"
)

// setProcs sets GOMAXPROCS — the render pool's width — to n for the rest
// of the test. Tests that call it must not be parallel: a non-parallel test
// never overlaps a parallel one.
func setProcs(t *testing.T, n int) {
	t.Helper()
	old := runtime.GOMAXPROCS(n)
	t.Cleanup(func() { runtime.GOMAXPROCS(old) })
}

// TestTileParallelMatchesSequentialAllGames is the determinism contract of
// the tile-parallel fan-out: for every game in the catalog, a renderer
// fanning bands across pool workers produces frames byte-identical to the
// strictly sequential render — panorama pixels, near-frame pixels and
// masks alike, and every other frame kind (far BE with dynamics, a
// horizon band, colour) at 2 and 4 workers as well. Bands write disjoint
// rows, so worker count must be unobservable in the output.
func TestTileParallelMatchesSequentialAllGames(t *testing.T) {
	for _, spec := range games.Catalog() {
		t.Run(spec.Name, func(t *testing.T) {
			g := games.Build(spec)
			seq := New(g.Scene, Config{W: 64, H: 32})
			tiled := New(g.Scene, Config{W: 64, H: 32})

			eyes := []geom.Vec2{
				g.Spawn,
				g.Scene.Bounds.Center(),
				{X: g.Spawn.X + 1.5, Z: g.Spawn.Z - 0.5},
			}
			for _, p := range eyes {
				eye := g.Scene.EyeAt(g.Scene.Bounds.ClampPoint(p))
				setProcs(t, 1) // renders inline
				a := seq.Panorama(eye, 0, math.Inf(1), nil)
				fa := seq.NearFrame(eye, 6, nil)
				setProcs(t, 4) // forces the pool path even on one CPU
				b := tiled.Panorama(eye, 0, math.Inf(1), nil)
				fb := tiled.NearFrame(eye, 6, nil)
				for i := range a.Pix {
					if a.Pix[i] != b.Pix[i] {
						t.Fatalf("%s: parallel panorama differs at pixel %d: %d vs %d",
							spec.Name, i, a.Pix[i], b.Pix[i])
					}
				}
				for i := range fa.Mask {
					if fa.Mask[i] != fb.Mask[i] || fa.Gray.Pix[i] != fb.Gray.Pix[i] {
						t.Fatalf("%s: parallel near frame differs at %d", spec.Name, i)
					}
				}
				seq.ReleaseGray(a)
				tiled.ReleaseGray(b)
				seq.ReleaseFrame(fa)
				tiled.ReleaseFrame(fb)

				dyn := []world.Object{g.Avatar(geom.V2(p.X+2.1, p.Z+0.8), 1)}
				kinds := func() [][]byte {
					return [][]byte{
						tiled.Panorama(eye, 6, math.Inf(1), dyn).Pix,
						tiled.PanoramaBand(eye, 6, math.Inf(1), dyn, 10, 20).Pix,
						tiled.PanoramaRGB(eye, 0, math.Inf(1), dyn).Pix,
					}
				}
				setProcs(t, 1)
				want := kinds()
				for _, workers := range []int{2, 4} {
					setProcs(t, workers)
					for k, got := range kinds() {
						if !bytes.Equal(got, want[k]) {
							t.Fatalf("%s: frame kind %d differs at %d workers", spec.Name, k, workers)
						}
					}
				}
			}
		})
	}
}

// TestRenderersShareOnePool holds the process to one render pool: however
// many renderers render, the goroutine count grows by at most the pool's
// GOMAXPROCS − 1 workers. A pool per renderer would add that many per
// renderer, and nothing would ever stop them.
func TestRenderersShareOnePool(t *testing.T) {
	setProcs(t, max(runtime.GOMAXPROCS(0), 2))
	s := denseScene(13, 60)
	eye := s.EyeAt(geom.V2(50, 50))
	base := runtime.NumGoroutine()
	for range 20 {
		r := New(s, DefaultConfig())
		r.ReleaseGray(r.Panorama(eye, 0, math.Inf(1), nil))
	}
	if grown, pool := runtime.NumGoroutine()-base, runtime.GOMAXPROCS(0)-1; grown > pool {
		t.Errorf("20 renderers grew the goroutine count by %d, more than one pool of %d workers", grown, pool)
	}
}

// TestPanoramaAllocationFree mirrors transport's TestFrameCodecAllocationFree
// for the render hot path: with the caller returning frames via
// ReleaseGray/ReleaseFrame, steady-state Panorama and NearFrame must not
// allocate — the pre-pooling baseline of 7 allocs and 33 KB per op is the
// regression this guards against.
func TestPanoramaAllocationFree(t *testing.T) {
	s := denseScene(11, 120)
	setProcs(t, 4)
	r := New(s, Config{W: 96, H: 48})
	eye := s.EyeAt(geom.V2(55, 60))

	// Warm: spawn pool workers, seed every freelist (buffers, job, queries).
	for i := 0; i < 3; i++ {
		r.ReleaseGray(r.Panorama(eye, 0, math.Inf(1), nil))
		r.ReleaseFrame(r.NearFrame(eye, 8, nil))
	}

	if allocs := testing.AllocsPerRun(10, func() {
		g := r.Panorama(eye, 0, math.Inf(1), nil)
		r.ReleaseGray(g)
	}); allocs > 0 {
		t.Errorf("Panorama allocates %.1f times per op, budget 0", allocs)
	}
	if allocs := testing.AllocsPerRun(10, func() {
		f := r.NearFrame(eye, 8, nil)
		r.ReleaseFrame(f)
	}); allocs > 0 {
		t.Errorf("NearFrame allocates %.1f times per op, budget 0", allocs)
	}
}

// TestReleaseGrayReusesBuffer pins the pooling behaviour: a released frame
// backs the next render, and foreign-sized buffers are rejected rather
// than poisoning the pool.
func TestReleaseGrayReusesBuffer(t *testing.T) {
	s := denseScene(12, 40)
	r := New(s, Config{W: 64, H: 32})
	eye := s.EyeAt(geom.V2(50, 50))

	a := r.Panorama(eye, 0, math.Inf(1), nil)
	first := &a.Pix[0]
	r.ReleaseGray(a)
	b := r.Panorama(eye, 0, math.Inf(1), nil)
	if &b.Pix[0] != first {
		t.Error("released frame was not reused by the next render")
	}

	// A frame of the wrong size must not enter the pool.
	other := New(s, Config{W: 32, H: 16})
	foreign := other.Panorama(eye, 0, math.Inf(1), nil)
	r.ReleaseGray(foreign)
	r.ReleaseGray(nil)
	c := r.Panorama(eye, 0, math.Inf(1), nil)
	if c.W != 64 || c.H != 32 {
		t.Fatalf("render returned foreign buffer %dx%d", c.W, c.H)
	}

	// Masks must come back cleared.
	f := r.NearFrame(eye, 8, nil)
	hadMask := false
	for _, m := range f.Mask {
		if m {
			hadMask = true
			break
		}
	}
	if !hadMask {
		t.Fatal("near frame saw no hits; test scene too empty")
	}
	r.ReleaseFrame(f)
	empty := r.NearFrame(eye, 0.01, nil) // cutoff too close for any hit
	for i, m := range empty.Mask {
		if m {
			t.Fatalf("reused mask not cleared at %d", i)
		}
	}
}

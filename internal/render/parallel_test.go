package render

import (
	"math"
	"testing"

	"coterie/internal/games"
	"coterie/internal/geom"
)

// TestTileParallelMatchesSequentialAllGames is the determinism contract of
// the tile-parallel fan-out: for every game in the catalog, a renderer
// fanning bands across pool workers produces frames byte-identical to the
// strictly sequential renderer — panorama pixels, near-frame pixels and
// masks alike. Bands write disjoint rows, so worker count must be
// unobservable in the output.
func TestTileParallelMatchesSequentialAllGames(t *testing.T) {
	for _, spec := range games.Catalog() {
		t.Run(spec.Name, func(t *testing.T) {
			g := games.Build(spec)
			cfg := Config{W: 64, H: 32}
			cfg.Parallel = 1
			seq := New(g.Scene, cfg)
			cfg.Parallel = 4 // forces the pool path even on one CPU
			tiled := New(g.Scene, cfg)
			defer tiled.Close()

			eyes := []geom.Vec2{
				g.Spawn,
				g.Scene.Bounds.Center(),
				{X: g.Spawn.X + 1.5, Z: g.Spawn.Z - 0.5},
			}
			for _, p := range eyes {
				eye := g.Scene.EyeAt(g.Scene.Bounds.ClampPoint(p))
				a := seq.Panorama(eye, 0, math.Inf(1), nil)
				b := tiled.Panorama(eye, 0, math.Inf(1), nil)
				for i := range a.Pix {
					if a.Pix[i] != b.Pix[i] {
						t.Fatalf("%s: parallel panorama differs at pixel %d: %d vs %d",
							spec.Name, i, a.Pix[i], b.Pix[i])
					}
				}
				fa := seq.NearFrame(eye, 6, nil)
				fb := tiled.NearFrame(eye, 6, nil)
				for i := range fa.Mask {
					if fa.Mask[i] != fb.Mask[i] || fa.Gray.Pix[i] != fb.Gray.Pix[i] {
						t.Fatalf("%s: parallel near frame differs at %d", spec.Name, i)
					}
				}
				seq.ReleaseGray(a)
				tiled.ReleaseGray(b)
				seq.ReleaseFrame(fa)
				tiled.ReleaseFrame(fb)
			}
		})
	}
}

// TestPanoramaAllocationFree mirrors transport's TestFrameCodecAllocationFree
// for the render hot path: with the caller returning frames via
// ReleaseGray/ReleaseFrame, steady-state Panorama and NearFrame must not
// allocate — the pre-pooling baseline of 7 allocs and 33 KB per op is the
// regression this guards against.
func TestPanoramaAllocationFree(t *testing.T) {
	s := denseScene(11, 120)
	r := New(s, Config{W: 96, H: 48, Parallel: 4})
	defer r.Close()
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
	r := New(s, Config{W: 64, H: 32, Parallel: 1})
	eye := s.EyeAt(geom.V2(50, 50))

	a := r.Panorama(eye, 0, math.Inf(1), nil)
	first := &a.Pix[0]
	r.ReleaseGray(a)
	b := r.Panorama(eye, 0, math.Inf(1), nil)
	if &b.Pix[0] != first {
		t.Error("released frame was not reused by the next render")
	}

	// A frame of the wrong size must not enter the pool.
	other := New(s, Config{W: 32, H: 16, Parallel: 1})
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

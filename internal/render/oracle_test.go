package render

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"testing"

	"coterie/internal/games"
	"coterie/internal/geom"
	"coterie/internal/par"
	"coterie/internal/world"
)

// The oracle: every frame kind the renderer produces must equal, pixel for
// pixel, a frame built one ray at a time on Scene.Intersect (the general
// per-ray grid walk) and the same shaders. The renderer itself never calls
// Scene.Intersect; it answers each ray from the candidates of one
// column-wide walk (world.Gather), and this test is what holds that
// traversal to the per-ray result.

const oracleW, oracleH = 128, 64

// oraclePixel is the reference result of one ray.
type oraclePixel struct {
	hit   world.Hit
	ok    bool
	dir   geom.Vec3
	pitch float64
}

// oracleCast casts every pixel's ray on its own, with the projection
// arithmetic written out rather than read from the renderer's tables.
func oracleCast(s *world.Scene, eye geom.Vec3, tMin, tMax float64, dynamics []world.Object) []oraclePixel {
	q := s.NewQuery()
	px := make([]oraclePixel, oracleW*oracleH)
	for y := 0; y < oracleH; y++ {
		pitch := math.Pi/2 - math.Pi*(float64(y)+0.5)/float64(oracleH)
		cp, sp := math.Cos(pitch), math.Sin(pitch)
		for x := 0; x < oracleW; x++ {
			yaw := -math.Pi + 2*math.Pi*(float64(x)+0.5)/float64(oracleW)
			dir := geom.V3(cp*math.Sin(yaw), sp, cp*math.Cos(yaw))
			ray := geom.Ray{Origin: eye, Direction: dir}
			hit, ok := s.Intersect(q, ray, tMin, tMax)
			for di := range dynamics {
				limit := tMax
				if ok {
					limit = hit.T
				}
				if t, dok := dynamics[di].IntersectFrom(ray, tMin); dok && t < limit {
					hit = world.Hit{T: t, Object: &dynamics[di], Point: ray.At(t)}
					ok = true
				}
			}
			px[y*oracleW+x] = oraclePixel{hit, ok, dir, pitch}
		}
	}
	return px
}

func (p oraclePixel) luma() uint8 {
	if !p.ok {
		return skyShade(p.pitch)
	}
	return shade(p.hit, p.dir, 2*math.Pi/float64(oracleW))
}

func (p oraclePixel) rgb() (uint8, uint8, uint8) {
	if !p.ok {
		return skyRGB(math.Sin(p.pitch))
	}
	return shadeRGB(p.hit, p.dir, 2*math.Pi/float64(oracleW))
}

// oracleEyes picks the viewpoints: the spawn, an off-grid point beside it,
// a point in a border cell of the scene index (where overhanging objects
// are only listed through clamped cells), and the busiest spot of a coarse
// scan of the map (rays start among, possibly inside, objects).
func oracleEyes(g *games.Game) []geom.Vec2 {
	b := g.Scene.Bounds
	q := g.Scene.NewQuery()
	dense, most := b.Center(), -1
	for i := 0; i < 16; i++ {
		for j := 0; j < 16; j++ {
			p := geom.V2(b.MinX+(float64(i)+0.5)*b.Width()/16, b.MinZ+(float64(j)+0.5)*b.Depth()/16)
			if n := len(g.Scene.ObjectsWithin(q, nil, p, 6)); n > most {
				dense, most = p, n
			}
		}
	}
	return []geom.Vec2{
		g.Spawn,
		b.ClampPoint(geom.V2(g.Spawn.X+1.37, g.Spawn.Z-0.61)),
		geom.V2(b.MinX+0.05, b.MinZ+0.3*b.Depth()),
		dense,
	}
}

// TestColumnCastMatchesPerRayOracle holds every frame kind to the oracle at
// 1, 2 and 4 render workers, and at the run's GOMAXPROCS when that is none
// of them: the band edges move with the width. It sets GOMAXPROCS, so it is
// not parallel.
func TestColumnCastMatchesPerRayOracle(t *testing.T) {
	const cutoff = 7.5
	bandLo, bandHi := oracleH/2-5, oracleH/2+4
	widths := []int{1, 2, 4}
	if p := runtime.GOMAXPROCS(0); !slices.Contains(widths, p) {
		widths = append(widths, p)
	}
	for _, spec := range games.Catalog() {
		t.Run(spec.Name, func(t *testing.T) {
			g := games.Build(spec)
			// expected holds the oracle's frames for one eye and set of
			// dynamics, shaded once: whole and far BE, the near frame and
			// its mask, and the colour panorama.
			type expected struct {
				ei               int
				p                geom.Vec2
				dyn              []world.Object
				whole, far, near []uint8
				nearOK           []bool
				rgb              [][3]uint8
			}
			var cases []expected
			for ei, p := range oracleEyes(g) {
				for _, dyn := range [][]world.Object{nil, {
					g.Avatar(geom.V2(p.X+2.1, p.Z+0.8), 1),
					g.Avatar(geom.V2(p.X-9.5, p.Z+6.2), 2),
				}} {
					cases = append(cases, expected{ei: ei, p: p, dyn: dyn})
				}
			}
			// The per-ray casts and their shading are most of the test's
			// time: they run side by side, at the run's width, before any
			// width is set.
			par.For(len(cases), func(i int) {
				e := &cases[i]
				eye := g.Scene.EyeAt(e.p)
				whole := oracleCast(g.Scene, eye, 0, math.Inf(1), e.dyn)
				far := oracleCast(g.Scene, eye, cutoff, math.Inf(1), e.dyn)
				near := oracleCast(g.Scene, eye, 0, cutoff, e.dyn)
				n := len(whole)
				e.whole, e.far, e.near = make([]uint8, n), make([]uint8, n), make([]uint8, n)
				e.nearOK, e.rgb = make([]bool, n), make([][3]uint8, n)
				for i := range whole {
					e.whole[i], e.far[i], e.near[i] = whole[i].luma(), far[i].luma(), near[i].luma()
					e.nearOK[i] = near[i].ok
					cr, cg, cb := whole[i].rgb()
					e.rgb[i] = [3]uint8{cr, cg, cb}
				}
			})
			r := New(g.Scene, Config{W: oracleW, H: oracleH})
			for _, workers := range widths {
				setProcs(t, workers)
				for _, e := range cases {
					eye, dyn := g.Scene.EyeAt(e.p), e.dyn
					name := fmt.Sprintf("eye %d (%.2f,%.2f) dynamics %d workers %d", e.ei, e.p.X, e.p.Z, len(dyn), workers)

					a := r.Panorama(eye, 0, math.Inf(1), dyn)
					b := r.Panorama(eye, cutoff, math.Inf(1), dyn)
					f := r.NearFrame(eye, cutoff, dyn)
					band := r.PanoramaBand(eye, cutoff, math.Inf(1), dyn, bandLo, bandHi)
					c := r.PanoramaRGB(eye, 0, math.Inf(1), dyn)
					for i := range e.whole {
						x, y := i%oracleW, i/oracleW
						if got, want := a.Pix[i], e.whole[i]; got != want {
							t.Fatalf("%s: whole-BE pixel (%d,%d) = %d, oracle %d", name, x, y, got, want)
						}
						if got, want := b.Pix[i], e.far[i]; got != want {
							t.Fatalf("%s: far-BE pixel (%d,%d) = %d, oracle %d", name, x, y, got, want)
						}
						if f.Mask[i] != e.nearOK[i] {
							t.Fatalf("%s: near mask (%d,%d) = %v, oracle %v", name, x, y, f.Mask[i], e.nearOK[i])
						}
						if got, want := f.Gray.Pix[i], e.near[i]; got != want {
							t.Fatalf("%s: near pixel (%d,%d) = %d, oracle %d", name, x, y, got, want)
						}
						if y >= bandLo && y < bandHi {
							if got, want := band.Pix[(y-bandLo)*oracleW+x], e.far[i]; got != want {
								t.Fatalf("%s: band pixel (%d,%d) = %d, oracle %d", name, x, y, got, want)
							}
						}
						cr, cg, cb := c.At(x, y)
						if wr, wg, wb := e.rgb[i][0], e.rgb[i][1], e.rgb[i][2]; cr != wr || cg != wg || cb != wb {
							t.Fatalf("%s: RGB pixel (%d,%d) = %d,%d,%d, oracle %d,%d,%d", name, x, y, cr, cg, cb, wr, wg, wb)
						}
					}
					r.ReleaseGray(a)
					r.ReleaseGray(b)
					r.ReleaseFrame(f)
				}
			}
		})
	}
}

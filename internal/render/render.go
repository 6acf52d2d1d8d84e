// Package render is the software rendering engine substituting for Unity's
// renderer. It ray-casts panoramic (equirectangular) frames of a
// world.Scene using perspective projection — the projection that causes the
// paper's "near-object" effect (§4.2): a small viewpoint displacement moves
// near geometry across many pixels and far geometry across few.
//
// The near-BE / far-BE split (§4.3) is realised with a per-ray hit-distance
// window: near BE accepts hits with t < cutoff, far BE accepts hits with
// t >= cutoff. An object straddling the cutoff contributes pixels to both
// halves, exactly as the paper permits.
package render

import (
	"math"
	"sync"

	"coterie/internal/geom"
	"coterie/internal/img"
	"coterie/internal/par"
	"coterie/internal/world"
)

// Config controls panoramic frame generation.
type Config struct {
	// W, H are the panorama dimensions in pixels. Equirectangular: W
	// covers 360 degrees of yaw, H covers 180 degrees of pitch. The paper
	// prefetches 3840x2160 panoramas; experiments here default to 256x128,
	// which preserves similarity structure at laptop-scale cost.
	W, H int
}

// DefaultConfig is the resolution used by the experiment harness.
func DefaultConfig() Config { return Config{W: 256, H: 128} }

// Renderer renders frames of one scene. It is safe for concurrent use: all
// per-call scratch state is checked out of internal freelists, and the
// projection tables are read-only once built.
//
// The render hot path is allocation-free at steady state when callers
// return finished frames with ReleaseGray/ReleaseFrame: output buffers,
// masks, scene queries and the fan-out job state are all pooled on the
// renderer. Callers that never release simply allocate a fresh frame per
// call, exactly as before.
//
// A renderer owns no goroutines. Column bands fan out on the process's one
// render pool (par.Run, tile-parallel rendering: bands write disjoint
// columns, so output is deterministic for any worker count and any
// schedule). Every renderer shares it, and it fans a render out only into
// idle cores: a lone render spreads over GOMAXPROCS workers, while as many
// renders in flight — of any renderers — as workers each run whole on
// their caller's goroutine.
type Renderer struct {
	Scene *world.Scene
	Cfg   Config

	// proj holds the trig of the equirectangular projection, which depends
	// only on W and H. It is built on first use, so a Renderer written as a
	// bare literal works like one from New.
	projOnce sync.Once
	proj     projection

	// Freelists for the per-call state. Explicit mutex-guarded freelists
	// (not sync.Pool) keep the steady state deterministic across GC cycles,
	// which the allocation-budget test relies on. queries counts the scene
	// queries made, pooled or checked out.
	mu        sync.Mutex
	freeGrays []*img.Gray
	freeMasks [][]bool
	freeJobs  []*castJob
	freeQs    []*world.Query
	freeBins  []*world.Bins
	queries   int
}

// New creates a renderer for the scene.
func New(s *world.Scene, cfg Config) *Renderer {
	if cfg.W <= 0 || cfg.H <= 0 {
		cfg = DefaultConfig()
	}
	return &Renderer{Scene: s, Cfg: cfg}
}

// projection is the per-row and per-column trig of the equirectangular
// mapping: row y looks at pitch pi/2 - pi*(y+0.5)/H, column x at yaw
// -pi + 2*pi*(x+0.5)/W, and pixel (x, y) along
// (cos[y]*sinYaw[x], sin[y], cos[y]*cosYaw[x]).
type projection struct {
	cos, sin, tan  []float64 // of the row's pitch
	sky            []uint8   // skyShade of the row's pitch
	sinYaw, cosYaw []float64 // of the column's yaw
}

// projection returns the renderer's tables, building them on first use.
func (r *Renderer) projection() *projection {
	r.projOnce.Do(func() {
		w, h := r.Cfg.W, r.Cfg.H
		p := &r.proj
		p.cos, p.sin, p.tan = make([]float64, h), make([]float64, h), make([]float64, h)
		p.sinYaw, p.cosYaw = make([]float64, w), make([]float64, w)
		p.sky = make([]uint8, h)
		for y := 0; y < h; y++ {
			pitch := math.Pi/2 - math.Pi*(float64(y)+0.5)/float64(h)
			p.cos[y], p.sin[y] = math.Cos(pitch), math.Sin(pitch)
			p.tan[y] = p.sin[y] / p.cos[y]
			p.sky[y] = skyShade(pitch)
		}
		for x := 0; x < w; x++ {
			yaw := -math.Pi + 2*math.Pi*(float64(x)+0.5)/float64(w)
			p.sinYaw[x], p.cosYaw[x] = math.Sin(yaw), math.Cos(yaw)
		}
	})
	return &r.proj
}

// Frame is a rendered panorama. Mask, when non-nil, flags the pixels that
// received a hit inside the render's distance window; unmasked pixels are
// transparent and get filled from the far-BE frame during merging.
type Frame struct {
	Gray *img.Gray
	Mask []bool
}

// sunDir is the fixed directional light.
var sunDir = geom.V3(0.4, 0.8, 0.45).Norm()

// Panorama renders an opaque 360-degree frame with hits restricted to
// [tMin, tMax); pixels without a hit in the window show the sky. dynamics
// are foreground-interaction objects (avatars, cars) tested in addition to
// the static scene; pass nil for pure BE frames.
//
// tMin=0, tMax=+Inf is a whole-BE frame (what Furion prefetches);
// tMin=cutoff, tMax=+Inf is a far-BE frame (what Coterie prefetches).
//
// Callers done with the frame may hand it back via ReleaseGray to keep the
// render path allocation-free; keeping it indefinitely is also fine.
func (r *Renderer) Panorama(eye geom.Vec3, tMin, tMax float64, dynamics []world.Object) *img.Gray {
	out := r.getGray()
	r.cast(castJob{out: out, dynamics: dynamics}, eye, tMin, tMax, 0, r.Cfg.H)
	return out
}

// NearFrame renders the near-BE frame: hits with t < cutoff, with a
// transparency mask for merging. This is the part Coterie renders on the
// mobile GPU together with FI. Callers done with the frame may hand it
// back via ReleaseFrame.
func (r *Renderer) NearFrame(eye geom.Vec3, cutoff float64, dynamics []world.Object) Frame {
	f := Frame{Gray: r.getGray(), Mask: r.getMask()}
	r.cast(castJob{out: f.Gray, mask: f.Mask, dynamics: dynamics}, eye, 0, cutoff, 0, r.Cfg.H)
	return f
}

// GroundTruth renders the reference frame used for visual-quality scoring:
// the full scene plus dynamics, no clipping, no codec in the path.
func (r *Renderer) GroundTruth(eye geom.Vec3, dynamics []world.Object) *img.Gray {
	return r.Panorama(eye, 0, math.Inf(1), dynamics)
}

// PanoramaBand renders only panorama rows [rowLo, rowHi) of the frame
// Panorama would produce, returning a W x (rowHi-rowLo) raster whose rows
// match the full render byte for byte: a thin ground-truth stripe, at a
// fraction of a full render's cost, to SSIM-validate a reprojected frame
// against. The band raster is not pooled (its size varies); it is garbage
// for the collector.
func (r *Renderer) PanoramaBand(eye geom.Vec3, tMin, tMax float64, dynamics []world.Object, rowLo, rowHi int) *img.Gray {
	rowLo, rowHi = max(rowLo, 0), min(rowHi, r.Cfg.H)
	if rowHi <= rowLo {
		return img.NewGray(r.Cfg.W, 0)
	}
	out := img.NewGray(r.Cfg.W, rowHi-rowLo)
	r.cast(castJob{out: out, dynamics: dynamics}, eye, tMin, tMax, rowLo, rowHi)
	return out
}

// bandsPerWorker oversubscribes bands relative to workers so the atomic
// work counter can balance uneven band costs (a band looking down a street
// ray-casts against more of the scene than one facing a wall).
const bandsPerWorker = 4

// fanout resolves GOMAXPROCS for n independent strips (columns of a
// ray-cast, rows of a warp) into a worker and a band count.
func fanout(n int) (workers, bands int) {
	workers = min(par.Workers(), n)
	return workers, min(workers*bandsPerWorker, n)
}

// castJob is the pooled fan-out state of one ray-cast: Run(b) casts band
// b's columns into disjoint pixels of the shared output, so bands never
// contend and the frame is byte-identical for any worker count. Every
// frame kind is this one loop; the output fields select the shader.
type castJob struct {
	r *Renderer
	// col is the column geometry every column of the cast shares (eye,
	// row tables, row window, distance window). Row col.RowLo lands at
	// out.Pix[0]: out holds only the rows of the window.
	col world.Column
	// bins holds the scene's objects binned to the columns for col.
	bins     *world.Bins
	dynamics []world.Object
	// groundLo, groundHi are the rows that see the ground inside the
	// distance window (world.Column.GroundRows): the same for every column.
	groundLo, groundHi int
	// out and the optional hit mask receive luma; rgb, when set, receives
	// colour instead.
	out      *img.Gray
	mask     []bool
	rgb      *img.RGB
	pixAngle float64
	bands    int
}

// cast runs j over rows [rowLo, rowHi) of every column on the render pool,
// in two phases: the frame's objects are binned to its columns in one part
// per worker (world.Bins), then the column bands are cast.
func (r *Renderer) cast(j castJob, eye geom.Vec3, tMin, tMax float64, rowLo, rowHi int) {
	p := r.projection()
	workers, bands := fanout(r.Cfg.W)
	r.reserveQueries(workers)
	j.r, j.bands = r, bands
	j.col = world.Column{
		Eye: eye, Tan: p.tan, Cos: p.cos, Sin: p.sin,
		RowLo: rowLo, RowHi: rowHi, TMin: tMin, TMax: tMax,
	}
	j.groundLo, j.groundHi = j.col.GroundRows()
	j.bins = r.getBins()
	r.Scene.Bin(j.bins, &j.col, workers)
	// pixAngle is the angular width of one pixel; surface patterns are
	// area-filtered against it (see shade).
	j.pixAngle = 2 * math.Pi / float64(r.Cfg.W)

	pj := r.getJob()
	*pj = j
	par.Run(j.bins.Parts(), j.bins)
	par.Run(bands, pj)
	*pj = castJob{} // drop references before pooling
	r.putJob(pj)
	r.putBins(j.bins)
}

// Run implements par.Job: cast the columns of band b. Each column gathers
// its candidate objects from the frame's bins with one walk of the index
// grid, then every row of the column is answered from them (world.Gather).
// Only the live rows — the hull of the candidates' rows and of the
// ground's — build a ray: no other row can hit anything, so it shows the
// sky. Most of a far-BE panorama is such rows, and the sky depends on the
// row alone, so a luma band first fills its columns of every row with the
// row's sky — one contiguous segment per row, disjoint from every other
// band's — and the columns then write only their hits.
func (j *castJob) Run(b int) {
	r, p, w := j.r, &j.r.proj, j.r.Cfg.W
	x0, x1 := b*w/j.bands, (b+1)*w/j.bands
	col := j.col
	if j.rgb == nil {
		for y := col.RowLo; y < col.RowHi; y++ {
			sky, seg := p.sky[y], j.out.Pix[(y-col.RowLo)*w+x0:(y-col.RowLo)*w+x1]
			for i := range seg {
				seg[i] = sky
			}
		}
	}
	q := r.getQuery()
	for x := x0; x < x1; x++ {
		col.SinYaw, col.CosYaw = p.sinYaw[x], p.cosYaw[x]
		lo, hi := r.Scene.Gather(q, j.bins, x)
		lo, hi = min(lo, j.groundLo), max(hi, j.groundHi)
		if len(j.dynamics) > 0 {
			// Dynamics are few and tested brute force: any row may see one.
			lo, hi = col.RowLo, col.RowHi
		}
		if j.rgb != nil {
			for y := col.RowLo; y < col.RowHi; y++ {
				cr, cg, cb := skyRGB(p.sin[y])
				j.rgb.Set(x, y, cr, cg, cb)
			}
		}
		for y := lo; y < hi; y++ {
			cp := p.cos[y]
			dir := geom.V3(cp*col.SinYaw, p.sin[y], cp*col.CosYaw)
			ray := geom.Ray{Origin: col.Eye, Direction: dir}

			hit, ok := r.Scene.IntersectColumn(q, y, ray)
			for di := range j.dynamics {
				limit := col.TMax
				if ok {
					limit = hit.T
				}
				if t, dok := j.dynamics[di].IntersectFrom(ray, col.TMin); dok && t < limit {
					hit = world.Hit{T: t, Object: &j.dynamics[di], Point: ray.At(t)}
					ok = true
				}
			}
			switch {
			case !ok:
			case j.rgb != nil:
				cr, cg, cb := shadeRGB(hit, dir, j.pixAngle)
				j.rgb.Set(x, y, cr, cg, cb)
			default:
				idx := (y-col.RowLo)*w + x
				if j.mask != nil {
					j.mask[idx] = true
				}
				j.out.Pix[idx] = shade(hit, dir, j.pixAngle)
			}
		}
	}
	r.putQuery(q)
}

// getGray checks an output buffer out of the freelist, or allocates one.
// Every pixel of a render is written (sky or shade), so reused buffers
// need no clearing.
func (r *Renderer) getGray() *img.Gray {
	r.mu.Lock()
	if n := len(r.freeGrays); n > 0 {
		g := r.freeGrays[n-1]
		r.freeGrays = r.freeGrays[:n-1]
		r.mu.Unlock()
		return g
	}
	r.mu.Unlock()
	return img.NewGray(r.Cfg.W, r.Cfg.H)
}

// ReleaseGray returns a frame obtained from Panorama or GroundTruth to the
// renderer's buffer pool. The caller must not touch the frame afterwards.
// Frames of a different resolution (or nil) are ignored, so callers may
// release unconditionally.
func (r *Renderer) ReleaseGray(g *img.Gray) {
	if g == nil || g.W != r.Cfg.W || g.H != r.Cfg.H {
		return
	}
	r.mu.Lock()
	r.freeGrays = append(r.freeGrays, g)
	r.mu.Unlock()
}

// getMask checks a mask out of the freelist (cleared) or allocates one.
func (r *Renderer) getMask() []bool {
	r.mu.Lock()
	if n := len(r.freeMasks); n > 0 {
		m := r.freeMasks[n-1]
		r.freeMasks = r.freeMasks[:n-1]
		r.mu.Unlock()
		clear(m)
		return m
	}
	r.mu.Unlock()
	return make([]bool, r.Cfg.W*r.Cfg.H)
}

// ReleaseFrame returns a NearFrame result (gray plane and mask) to the
// renderer's buffer pools. The caller must not touch the frame afterwards.
func (r *Renderer) ReleaseFrame(f Frame) {
	r.ReleaseGray(f.Gray)
	if len(f.Mask) != r.Cfg.W*r.Cfg.H {
		return
	}
	r.mu.Lock()
	r.freeMasks = append(r.freeMasks, f.Mask)
	r.mu.Unlock()
}

func (r *Renderer) getJob() *castJob {
	r.mu.Lock()
	defer r.mu.Unlock()
	if n := len(r.freeJobs); n > 0 {
		j := r.freeJobs[n-1]
		r.freeJobs = r.freeJobs[:n-1]
		return j
	}
	return &castJob{}
}

func (r *Renderer) putJob(j *castJob) {
	r.mu.Lock()
	r.freeJobs = append(r.freeJobs, j)
	r.mu.Unlock()
}

func (r *Renderer) getQuery() *world.Query {
	r.mu.Lock()
	defer r.mu.Unlock()
	if n := len(r.freeQs); n > 0 {
		q := r.freeQs[n-1]
		r.freeQs = r.freeQs[:n-1]
		return q
	}
	r.queries++
	return r.Scene.NewQuery()
}

// reserveQueries makes sure the renderer has made at least n scene
// queries. A cast runs at most one band per worker at a time: with a query
// per worker up front, a render that fans out wider than the ones before
// it finds its queries pooled.
func (r *Renderer) reserveQueries(n int) {
	r.mu.Lock()
	for ; r.queries < n; r.queries++ {
		r.freeQs = append(r.freeQs, r.Scene.NewQuery())
	}
	r.mu.Unlock()
}

func (r *Renderer) putQuery(q *world.Query) {
	r.mu.Lock()
	r.freeQs = append(r.freeQs, q)
	r.mu.Unlock()
}

// getBins checks bins for the renderer's projection out of the freelist, or
// builds them.
func (r *Renderer) getBins() *world.Bins {
	r.mu.Lock()
	if n := len(r.freeBins); n > 0 {
		b := r.freeBins[n-1]
		r.freeBins = r.freeBins[:n-1]
		r.mu.Unlock()
		return b
	}
	r.mu.Unlock()
	p := r.projection()
	return world.NewBins(p.sinYaw, p.cosYaw, p.tan)
}

func (r *Renderer) putBins(b *world.Bins) {
	r.mu.Lock()
	r.freeBins = append(r.freeBins, b)
	r.mu.Unlock()
}

// Merge composites a near-BE frame over a far-BE frame: masked (hit) pixels
// come from near, the rest from far. This is the client-side frame merging
// step (§5.1 task 5). The frames must be the same size.
func Merge(near Frame, far *img.Gray) *img.Gray {
	out := far.Clone()
	if near.Gray == nil || near.Mask == nil {
		return out
	}
	for i, m := range near.Mask {
		if m {
			out.Pix[i] = near.Gray.Pix[i]
		}
	}
	return out
}

// skyShade is the skybox: a function of view direction only, so it is
// identical from every viewpoint (infinitely far away).
func skyShade(pitch float64) uint8 {
	v := 168 + 50*math.Sin(math.Max(0, pitch))
	return uint8(v)
}

// shade computes the luma of a surface hit: base albedo x procedural
// pattern x Lambert lighting. Surface patterns are area-filtered by the
// pixel footprint (a mip-map in closed form): a distant surface whose
// texture period falls below the pixel size fades to its mean shade
// instead of aliasing into per-pixel noise. This mirrors real renderers
// and matters doubly here — far content must be smooth both for the codec
// (far-BE frames compress to a fraction of whole-BE frames, §7) and for
// SSIM (distant geometry looks nearly identical from nearby viewpoints).
func shade(h world.Hit, viewDir geom.Vec3, pixAngle float64) uint8 {
	if h.Object == nil {
		// Ground plane: 2 m world-space checker, area-filtered.
		const period = 2.0
		cx := int(math.Floor(h.Point.X / period))
		cz := int(math.Floor(h.Point.Z / period))
		checker := 0.49
		if (cx+cz)&1 == 0 {
			checker = 0.58
		}
		// Projected pixel footprint on the ground stretches by the
		// grazing angle.
		grazing := max(math.Abs(viewDir.Y), 0.05)
		footprint := h.T * pixAngle / grazing
		blend := filterBlend(period, footprint)
		base := 0.53 + (checker-0.53)*blend
		// Fine ground detail (grass/gravel): a 0.4 m pattern that only
		// resolves near the viewer. This is what makes near BE content
		// expensive to encode and far-BE frames much smaller (§4.3).
		base += fineDetail(h.Point.X, h.Point.Z, 0.4, footprint)
		return clampShade(base * 255)
	}
	o := h.Object
	base := 0.30 + 0.55*o.Shade

	// Procedural world-space surface pattern so that displacement of the
	// viewpoint produces genuine pixel change on textured surfaces.
	p := h.Point
	freq := patternFreq(o)
	tex := 0.82
	if patternPositive(p.X*freq+float64(o.Pattern), p.Y*freq*1.3+1.7, p.Z*freq+0.9) {
		tex = 1.22
	}
	period := 2 * math.Pi / freq
	blend := filterBlend(period, h.T*pixAngle)
	if o.Smooth {
		// Painted wall / ceiling: faint large-scale tone variation only.
		tex = 1 + (tex-1)*blend*0.25
	} else {
		tex = 1 + (tex-1)*blend
		// Fine surface detail (bark, brickwork) resolving only up close.
		tex += fineDetail(p.X+p.Y, p.Z-p.Y, max(period*0.12, 0.08), h.T*pixAngle) * 0.8
	}

	n := surfaceNormal(h)
	lambert := 0.55 + 0.45*max(0, n.Dot(sunDir))
	return clampShade(base * tex * lambert * 255)
}

// patternPositive reports whether sin(a)*sin(b)*sin(c) > 0, which is all the
// surface pattern asks of its three sines. sin x is positive exactly when
// floor(x/pi) is even, so the sign of the product is the parity of the three
// floors' sum. That is certain whenever every argument keeps clear of the
// multiples of pi: with |x| < 1e6 the computed x*(1/pi) is within 1e-10 of
// x/pi, so a fraction in [1e-6, 1-1e-6] puts x at least 3e-6 from a multiple
// and |sin x| >= 3e-6 — ten orders above math.Sin's error, and the product
// of three such factors cannot underflow. Anything else (a grazing
// argument, a huge one, NaN, Inf) takes the three sines.
func patternPositive(a, b, c float64) bool {
	na, oka := halfTurns(a)
	nb, okb := halfTurns(b)
	nc, okc := halfTurns(c)
	if oka && okb && okc {
		return (na+nb+nc)&1 == 0
	}
	return math.Sin(a)*math.Sin(b)*math.Sin(c) > 0
}

// halfTurns returns floor(x/pi) and whether x is inside patternPositive's
// guard band, where the parity of the floor is the sign of sin x.
func halfTurns(x float64) (int64, bool) {
	u := x * (1 / math.Pi)
	n := math.Floor(u)
	frac := u - n
	return int64(n), math.Abs(x) < 1e6 && frac >= 1e-6 && frac <= 1-1e-6
}

// fineDetail returns a +-0.09 noise texture with the given spatial period,
// area-filtered by the pixel footprint so it vanishes at distance. The
// noise is bilinearly interpolated between lattice values, like a
// filtered texture sample: small viewpoint shifts change it smoothly,
// which is what real game textures do.
func fineDetail(u, v, period, footprint float64) float64 {
	b := filterBlend(period, footprint)
	if b <= 0 {
		return 0
	}
	fu, fv := u/period, v/period
	iu, iv := math.Floor(fu), math.Floor(fv)
	tu, tv := fu-iu, fv-iv
	i, j := int64(iu), int64(iv)
	v00 := hashNoise(i, j)
	v10 := hashNoise(i+1, j)
	v01 := hashNoise(i, j+1)
	v11 := hashNoise(i+1, j+1)
	n := (v00*(1-tu)+v10*tu)*(1-tv) + (v01*(1-tu)+v11*tu)*tv
	return (n - 0.5) * 0.18 * b
}

func hashNoise(i, j int64) float64 {
	h := uint64(i)*0x9E3779B97F4A7C15 ^ uint64(j)*0xBF58476D1CE4E5B9
	h ^= h >> 31
	h *= 0xD6E8FEB86659FD93
	h ^= h >> 29
	return float64(h%1024) / 1023
}

// filterBlend returns the contrast retained by area-filtering a pattern of
// the given spatial period with a pixel footprint: 1 when the pattern is
// well resolved, falling to 0 as the footprint approaches the period
// (Nyquist).
func filterBlend(period, footprint float64) float64 {
	if footprint <= 0 {
		return 1
	}
	b := period / (3 * footprint)
	return geom.Clamp(b, 0, 1)
}

// patternFreq scales the texture frequency to the object size so small
// props and large buildings both show visible structure.
func patternFreq(o *world.Object) float64 {
	size := o.Radius
	if o.Kind == world.KindBox {
		size = (o.Half.X + o.Half.Y + o.Half.Z) / 3
	}
	if size < 0.2 {
		size = 0.2
	}
	return 2 * math.Pi / (size * 0.8)
}

func surfaceNormal(h world.Hit) geom.Vec3 {
	o := h.Object
	switch o.Kind {
	case world.KindSphere:
		return h.Point.Sub(o.Center).Norm()
	default:
		// Box: pick the axis with the largest normalised offset.
		d := h.Point.Sub(o.Center)
		ax := math.Abs(d.X) / o.Half.X
		ay := math.Abs(d.Y) / o.Half.Y
		az := math.Abs(d.Z) / o.Half.Z
		switch {
		case ax >= ay && ax >= az:
			return geom.V3(math.Copysign(1, d.X), 0, 0)
		case ay >= az:
			return geom.V3(0, math.Copysign(1, d.Y), 0)
		default:
			return geom.V3(0, 0, math.Copysign(1, d.Z))
		}
	}
}

func clampShade(v float64) uint8 {
	if v < 0 {
		return 0
	}
	if v > 255 {
		return 255
	}
	return uint8(v)
}

// FoVCrop crops a horizontal field-of-view window centred at the given yaw
// (radians) out of an equirectangular panorama, the way the Coterie client
// crops the display view from the prefetched panoramic frame at almost no
// cost (§2.2). fovX and fovY are in radians.
func FoVCrop(pano *img.Gray, yaw, fovX, fovY float64) (*img.Gray, error) {
	w := int(float64(pano.W) * fovX / (2 * math.Pi))
	h := int(float64(pano.H) * fovY / math.Pi)
	if w < 1 {
		w = 1
	}
	if h < 1 {
		h = 1
	}
	if h > pano.H {
		h = pano.H
	}
	cx := int((yaw + math.Pi) / (2 * math.Pi) * float64(pano.W))
	y0 := (pano.H - h) / 2
	return pano.CropWrapX(cx-w/2, y0, w, h)
}

// Reprojection synthesis: warp a panorama rendered at one eye position
// into the panorama a nearby eye position would see, without ray-casting
// the scene again. The image-space warp follows the split-rendering
// literature (PAPERS.md): each output ray is intersected with a
// constant-depth shell around the source eye, and the shell point is
// looked up in the source panorama. Far geometry
// (which is all a far-BE frame contains) moves slowly with viewpoint, so
// the constant-depth approximation holds exactly where Coterie's frame
// similarity argument holds. Nothing on the server warps frames (a served
// frame is a pure function of its grid point); Reproject is a library
// function for a client-side warp between server keyframes, and a caller
// that needs a quality bound checks the result against a PanoramaBand.
package render

import (
	"math"

	"coterie/internal/geom"
	"coterie/internal/img"
	"coterie/internal/par"
)

// reprojectJob warps row bands of the output panorama in parallel on the
// render pool. Bands write disjoint rows, so the result is
// byte-identical for any worker count.
type reprojectJob struct {
	r       *Renderer
	src     *img.Gray
	out     *img.Gray
	fromEye geom.Vec3
	toEye   geom.Vec3
	depth   float64
	bands   int
}

// Run implements par.Job: warp the rows of band b.
func (j *reprojectJob) Run(b int) {
	w, h := j.r.Cfg.W, j.r.Cfg.H
	y0 := b * h / j.bands
	y1 := (b + 1) * h / j.bands
	fw, fh := float64(w), float64(h)
	p := j.r.projection()
	for y := y0; y < y1; y++ {
		cp, sp := p.cos[y], p.sin[y]
		for x := 0; x < w; x++ {
			dir := geom.V3(cp*p.sinYaw[x], sp, cp*p.cosYaw[x])
			// The world point this output pixel assumes, on the constant-
			// depth shell, then the direction it subtends from the source
			// eye. With fromEye == toEye this is dir itself and the lookup
			// lands on the exact source pixel centre (identity warp).
			p := j.toEye.Add(dir.Scale(j.depth))
			sd := p.Sub(j.fromEye).Norm()
			sy := sd.Y
			if sy > 1 {
				sy = 1
			} else if sy < -1 {
				sy = -1
			}
			srcYaw := math.Atan2(sd.X, sd.Z)
			srcPitch := math.Asin(sy)
			u := (srcYaw + math.Pi) / (2 * math.Pi) * fw
			v := (math.Pi/2 - srcPitch) / math.Pi * fh
			j.out.Pix[y*w+x] = sampleBilinear(j.src, u-0.5, v-0.5)
		}
	}
}

// sampleBilinear reads the source panorama at fractional pixel (u, v) in
// pixel-centre coordinates, wrapping horizontally (yaw is periodic) and
// clamping vertically (the poles).
func sampleBilinear(g *img.Gray, u, v float64) uint8 {
	x0 := int(math.Floor(u))
	y0 := int(math.Floor(v))
	fx := u - float64(x0)
	fy := v - float64(y0)

	xi0 := wrapX(x0, g.W)
	xi1 := wrapX(x0+1, g.W)
	yi0 := clampY(y0, g.H)
	yi1 := clampY(y0+1, g.H)

	p00 := float64(g.Pix[yi0*g.W+xi0])
	p10 := float64(g.Pix[yi0*g.W+xi1])
	p01 := float64(g.Pix[yi1*g.W+xi0])
	p11 := float64(g.Pix[yi1*g.W+xi1])

	top := p00 + (p10-p00)*fx
	bot := p01 + (p11-p01)*fx
	return uint8(top + (bot-top)*fy + 0.5)
}

func wrapX(x, w int) int {
	x %= w
	if x < 0 {
		x += w
	}
	return x
}

func clampY(y, h int) int {
	if y < 0 {
		return 0
	}
	if y >= h {
		return h - 1
	}
	return y
}

// Reproject synthesizes the panorama at toEye from pano, a panorama of
// the same resolution rendered at fromEye, assuming all content sits at
// the given depth from the source eye. The warp runs on the render pool
// (par.Run) and is deterministic for any worker count. The
// returned frame comes from the renderer's buffer pool (ReleaseGray).
//
// The approximation degrades as |toEye-fromEye|/depth grows; callers are
// expected to verify the result (e.g. against a PanoramaBand sample)
// before substituting it for a real render.
func (r *Renderer) Reproject(pano *img.Gray, fromEye, toEye geom.Vec3, depth float64) *img.Gray {
	w, h := r.Cfg.W, r.Cfg.H
	if pano == nil || pano.W != w || pano.H != h || depth <= 0 {
		return nil
	}
	out := r.getGray()

	_, bands := fanout(h)
	j := &reprojectJob{
		r: r, src: pano, out: out,
		fromEye: fromEye, toEye: toEye, depth: depth,
		bands: bands,
	}
	par.Run(bands, j)
	return out
}

package render

import (
	"math"

	"coterie/internal/geom"
	"coterie/internal/img"
	"coterie/internal/world"
)

// Colour rendering. The experiments run on luma frames (SSIM and the codec
// operate on luminance); the RGB path exists for inspection — screenshots,
// the examples' PPM output — and shares the luma path's geometry, shading
// structure, distance-window semantics and ray-cast loop (castJob), differing
// only in the shader. It is a cold path, so its output is not pooled.

// PanoramaRGB renders an opaque 360-degree colour frame with hits
// restricted to [tMin, tMax); pixels without a hit show the sky.
func (r *Renderer) PanoramaRGB(eye geom.Vec3, tMin, tMax float64, dynamics []world.Object) *img.RGB {
	out := img.NewRGB(r.Cfg.W, r.Cfg.H)
	r.cast(castJob{rgb: out, dynamics: dynamics}, eye, tMin, tMax, 0, r.Cfg.H)
	return out
}

// skyRGB is a blue-to-pale gradient with the same luminance as skyShade;
// sinPitch is the sine of the view pitch.
func skyRGB(sinPitch float64) (uint8, uint8, uint8) {
	t := math.Max(0, sinPitch) // 0 at horizon, 1 at zenith
	r := 200 - 90*t
	g := 212 - 60*t
	b := 235 - 10*t
	return uint8(r), uint8(g), uint8(b)
}

// objectTint derives a stable base colour for an object from its identity.
func objectTint(o *world.Object) (float64, float64, float64) {
	if o.Smooth {
		// Painted surfaces: neutral warm grey.
		return 0.95, 0.93, 0.88
	}
	h := uint64(o.ID)*0x9E3779B97F4A7C15 + uint64(o.Pattern)
	h ^= h >> 29
	hue := float64(h%360) / 360
	// Muted palette: mostly greens/browns for props, anything for builds.
	r, g, b := hsvToRGB(hue, 0.35, 1.0)
	return r, g, b
}

func hsvToRGB(h, s, v float64) (float64, float64, float64) {
	i := math.Floor(h * 6)
	f := h*6 - i
	p := v * (1 - s)
	q := v * (1 - f*s)
	t := v * (1 - (1-f)*s)
	switch int(i) % 6 {
	case 0:
		return v, t, p
	case 1:
		return q, v, p
	case 2:
		return p, v, t
	case 3:
		return p, q, v
	case 4:
		return t, p, v
	default:
		return v, p, q
	}
}

// shadeRGB mirrors shade() with a colour tint: the luma structure (pattern,
// fine detail, Lambert) modulates a per-object hue.
func shadeRGB(h world.Hit, viewDir geom.Vec3, pixAngle float64) (uint8, uint8, uint8) {
	luma := float64(shade(h, viewDir, pixAngle)) / 255
	if h.Object == nil {
		// Ground: green-brown grass.
		return clamp8(luma * 0.72 * 255), clamp8(luma * 1.05 * 255), clamp8(luma * 0.55 * 255)
	}
	tr, tg, tb := objectTint(h.Object)
	return clamp8(luma * tr * 255), clamp8(luma * tg * 255), clamp8(luma * tb * 255)
}

func clamp8(v float64) uint8 {
	if v < 0 {
		return 0
	}
	if v > 255 {
		return 255
	}
	return uint8(v)
}

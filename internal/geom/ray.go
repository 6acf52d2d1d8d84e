package geom

import "math"

// Ray is a half-line with unit Direction starting at Origin.
type Ray struct {
	Origin    Vec3
	Direction Vec3
}

// At returns the point Origin + t*Direction.
func (r Ray) At(t float64) Vec3 { return r.Origin.Add(r.Direction.Scale(t)) }

// AABB is an axis-aligned bounding box.
type AABB struct {
	Min, Max Vec3
}

// Contains reports whether p lies inside the box (inclusive).
func (b AABB) Contains(p Vec3) bool {
	return p.X >= b.Min.X && p.X <= b.Max.X &&
		p.Y >= b.Min.Y && p.Y <= b.Max.Y &&
		p.Z >= b.Min.Z && p.Z <= b.Max.Z
}

// Center returns the box centroid.
func (b AABB) Center() Vec3 {
	return Vec3{(b.Min.X + b.Max.X) / 2, (b.Min.Y + b.Max.Y) / 2, (b.Min.Z + b.Max.Z) / 2}
}

// IntersectRaySpan returns the full parametric span [tEntry, tExit] of the
// ray inside the box (tEntry may be negative when the origin is inside),
// and whether the ray intersects the box at all with tExit >= 0. Both
// surface crossings are needed for distance-window clipping: an object
// straddling the near/far-BE cutoff shows its back face in the far BE.
func (b AABB) IntersectRaySpan(r Ray) (float64, float64, bool) {
	tMin, tMax := math.Inf(-1), math.Inf(1)

	update := func(o, d, lo, hi float64) bool {
		if d == 0 {
			return o >= lo && o <= hi
		}
		t0 := (lo - o) / d
		t1 := (hi - o) / d
		if t0 > t1 {
			t0, t1 = t1, t0
		}
		if t0 > tMin {
			tMin = t0
		}
		if t1 < tMax {
			tMax = t1
		}
		return tMin <= tMax
	}

	if !update(r.Origin.X, r.Direction.X, b.Min.X, b.Max.X) {
		return 0, 0, false
	}
	if !update(r.Origin.Y, r.Direction.Y, b.Min.Y, b.Max.Y) {
		return 0, 0, false
	}
	if !update(r.Origin.Z, r.Direction.Z, b.Min.Z, b.Max.Z) {
		return 0, 0, false
	}
	if tMax < 0 {
		return 0, 0, false
	}
	return tMin, tMax, true
}

// IntersectSphereFrom returns the nearest hit parameter >= tMin of the ray
// against a sphere surface (front or back face), and whether there is one.
func IntersectSphereFrom(r Ray, center Vec3, radius float64, tMin float64) (float64, bool) {
	oc := r.Origin.Sub(center)
	b := oc.Dot(r.Direction)
	c := oc.LenSq() - radius*radius
	disc := b*b - c
	if disc < 0 {
		return 0, false
	}
	sq := math.Sqrt(disc)
	if t := -b - sq; t >= tMin {
		return t, true
	}
	if t := -b + sq; t >= tMin {
		return t, true
	}
	return 0, false
}

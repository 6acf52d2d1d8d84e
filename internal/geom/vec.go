// Package geom provides the small geometric vocabulary shared by the
// Coterie substrates: 3-D vectors, rays, axis-aligned boxes, 2-D regions for
// the quadtree partitioner, and grid-point coordinates for the discretised
// virtual world.
package geom

import "math"

// Vec3 is a point or direction in the virtual world. Coterie uses a
// Y-up convention: players move in the XZ plane, Y is elevation.
type Vec3 struct {
	X, Y, Z float64
}

// V3 constructs a Vec3.
func V3(x, y, z float64) Vec3 { return Vec3{x, y, z} }

// Add returns v + w.
func (v Vec3) Add(w Vec3) Vec3 { return Vec3{v.X + w.X, v.Y + w.Y, v.Z + w.Z} }

// Sub returns v - w.
func (v Vec3) Sub(w Vec3) Vec3 { return Vec3{v.X - w.X, v.Y - w.Y, v.Z - w.Z} }

// Scale returns v scaled by s.
func (v Vec3) Scale(s float64) Vec3 { return Vec3{v.X * s, v.Y * s, v.Z * s} }

// Dot returns the dot product v·w.
func (v Vec3) Dot(w Vec3) float64 { return v.X*w.X + v.Y*w.Y + v.Z*w.Z }

// Len returns the Euclidean length of v.
func (v Vec3) Len() float64 { return math.Sqrt(v.Dot(v)) }

// LenSq returns the squared length of v.
func (v Vec3) LenSq() float64 { return v.Dot(v) }

// Dist returns the distance between v and w.
func (v Vec3) Dist(w Vec3) float64 { return v.Sub(w).Len() }

// Norm returns v normalised to unit length. The zero vector is returned
// unchanged.
func (v Vec3) Norm() Vec3 {
	l := v.Len()
	if l == 0 {
		return v
	}
	return v.Scale(1 / l)
}

// Vec2 is a point in the ground (XZ) plane.
type Vec2 struct {
	X, Z float64
}

// V2 constructs a Vec2.
func V2(x, z float64) Vec2 { return Vec2{x, z} }

// Add returns v + w.
func (v Vec2) Add(w Vec2) Vec2 { return Vec2{v.X + w.X, v.Z + w.Z} }

// Sub returns v - w.
func (v Vec2) Sub(w Vec2) Vec2 { return Vec2{v.X - w.X, v.Z - w.Z} }

// Scale returns v scaled by s.
func (v Vec2) Scale(s float64) Vec2 { return Vec2{v.X * s, v.Z * s} }

// Len returns the Euclidean length of v.
func (v Vec2) Len() float64 { return math.Hypot(v.X, v.Z) }

// Dist returns the distance between v and w.
func (v Vec2) Dist(w Vec2) float64 { return v.Sub(w).Len() }

// Norm returns v normalised to unit length; the zero vector is returned
// unchanged.
func (v Vec2) Norm() Vec2 {
	l := v.Len()
	if l == 0 {
		return v
	}
	return v.Scale(1 / l)
}

// XZ3 lifts the 2-D point to 3-D at elevation y.
func (v Vec2) XZ3(y float64) Vec3 { return Vec3{v.X, y, v.Z} }

// Clamp returns x clamped to [lo, hi].
func Clamp(x, lo, hi float64) float64 {
	if x < lo {
		return lo
	}
	if x > hi {
		return hi
	}
	return x
}

package geom

// Rect is an axis-aligned rectangle in the ground (XZ) plane. The adaptive
// cutoff scheme recursively partitions the game world into Rects (§4.3).
type Rect struct {
	MinX, MinZ, MaxX, MaxZ float64
}

// NewRect constructs the rectangle spanning [0,w] x [0,d].
func NewRect(w, d float64) Rect { return Rect{0, 0, w, d} }

// Width returns the extent along X.
func (r Rect) Width() float64 { return r.MaxX - r.MinX }

// Depth returns the extent along Z.
func (r Rect) Depth() float64 { return r.MaxZ - r.MinZ }

// Area returns the rectangle area in square metres.
func (r Rect) Area() float64 { return r.Width() * r.Depth() }

// Center returns the rectangle centroid.
func (r Rect) Center() Vec2 {
	return Vec2{(r.MinX + r.MaxX) / 2, (r.MinZ + r.MaxZ) / 2}
}

// Contains reports whether p lies inside the rectangle. The convention is
// half-open on the max edges so that the four quadrants of a split tile the
// parent exactly.
func (r Rect) Contains(p Vec2) bool {
	return p.X >= r.MinX && p.X < r.MaxX && p.Z >= r.MinZ && p.Z < r.MaxZ
}

// ContainsClosed reports whether p lies inside the rectangle including the
// max edges; use this for the root region so boundary points belong to the
// world.
func (r Rect) ContainsClosed(p Vec2) bool {
	return p.X >= r.MinX && p.X <= r.MaxX && p.Z >= r.MinZ && p.Z <= r.MaxZ
}

// Quadrants splits the rectangle into its four equal-sized quadrants in the
// order (min,min), (max,min), (min,max), (max,max).
func (r Rect) Quadrants() [4]Rect {
	cx := (r.MinX + r.MaxX) / 2
	cz := (r.MinZ + r.MaxZ) / 2
	return [4]Rect{
		{r.MinX, r.MinZ, cx, cz},
		{cx, r.MinZ, r.MaxX, cz},
		{r.MinX, cz, cx, r.MaxZ},
		{cx, cz, r.MaxX, r.MaxZ},
	}
}

// ClampPoint returns p moved to the nearest point inside the rectangle.
func (r Rect) ClampPoint(p Vec2) Vec2 {
	return Vec2{Clamp(p.X, r.MinX, r.MaxX), Clamp(p.Z, r.MinZ, r.MaxZ)}
}

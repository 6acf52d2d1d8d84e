// Package world models the discretised virtual world of a VR game: the set
// of static background-environment (BE) objects, the grid of reachable
// viewpoints, and spatial queries over object geometry.
//
// Two queries drive the whole system:
//
//   - ray intersection (used by the renderer in internal/render), with the
//     near/far clip window that realises the near-BE / far-BE split, and
//   - triangle count within a radius of a location (used by the adaptive
//     cutoff scheme in internal/cutoff and by the device render-time model,
//     since rendering speed is correlated with triangle count, §4.3).
package world

import (
	"fmt"
	"math"

	"coterie/internal/geom"
)

// EyeHeight is the camera elevation above the terrain foothold, in metres.
// The paper's offline preprocessor ray-traces the foothold and raises the
// camera to the player's eye height (§6, "Offline preprocessing").
const EyeHeight = 1.7

// Kind enumerates object shapes. Unity assets are triangle meshes; we model
// them with two primitive families that a ray caster handles exactly.
type Kind uint8

const (
	// KindSphere is a sphere asset (trees, rocks, people, balls).
	KindSphere Kind = iota
	// KindBox is an axis-aligned box asset (houses, walls, stadium stands).
	KindBox
)

// Object is one static BE asset. Triangles is the triangle count of the
// underlying mesh; it drives render-time estimates and object density.
type Object struct {
	ID        int
	Kind      Kind
	Center    geom.Vec3
	Radius    float64   // sphere radius (KindSphere)
	Half      geom.Vec3 // half extents (KindBox)
	Triangles int
	// Shade in [0,1] is the base albedo used by the renderer; Pattern
	// selects the procedural surface texture. Smooth marks low-texture
	// surfaces (painted walls, ceilings) that render without fine detail.
	Shade   float64
	Pattern uint8
	Smooth  bool
}

// Bounds returns the object's axis-aligned bounding box.
func (o *Object) Bounds() geom.AABB {
	switch o.Kind {
	case KindSphere:
		r := geom.V3(o.Radius, o.Radius, o.Radius)
		return geom.AABB{Min: o.Center.Sub(r), Max: o.Center.Add(r)}
	default:
		return geom.AABB{Min: o.Center.Sub(o.Half), Max: o.Center.Add(o.Half)}
	}
}

// Intersect returns the nearest non-negative ray-hit parameter and whether
// the ray hits the object.
func (o *Object) Intersect(r geom.Ray) (float64, bool) {
	return o.IntersectFrom(r, 0)
}

// IntersectFrom returns the nearest surface-hit parameter >= tMin and
// whether there is one. Back faces count: when tMin (the near/far-BE
// cutoff) falls inside the object, the far BE shows the object's far
// surface, implementing the paper's "an object may be cut in the middle"
// semantics.
func (o *Object) IntersectFrom(r geom.Ray, tMin float64) (float64, bool) {
	switch o.Kind {
	case KindSphere:
		return geom.IntersectSphereFrom(r, o.Center, o.Radius, tMin)
	default:
		return intersectBoxFrom(o.Bounds(), r, tMin)
	}
}

// intersectBoxFrom is IntersectFrom for a box with bounds b.
func intersectBoxFrom(b geom.AABB, r geom.Ray, tMin float64) (float64, bool) {
	t0, t1, ok := b.IntersectRaySpan(r)
	if !ok {
		return 0, false
	}
	if t0 >= tMin {
		return t0, true
	}
	if t1 >= tMin {
		return t1, true
	}
	return 0, false
}

// Scene is a virtual game world: its ground-plane bounds, viewpoint grid,
// the static object set, and a uniform-grid spatial index over the objects.
type Scene struct {
	Name    string
	Bounds  geom.Rect
	Grid    geom.Grid
	Objects []Object

	// GroundTris is the triangle density of the terrain mesh itself in
	// triangles per square metre; terrain triangles near the viewpoint
	// count toward near-BE render cost like any other geometry.
	GroundTris float64

	index *index
}

// New creates a scene over the given bounds with the given grid step and
// builds the spatial index for the object set.
func New(name string, bounds geom.Rect, gridStep float64, objects []Object, groundTris float64) *Scene {
	s := &Scene{
		Name:       name,
		Bounds:     bounds,
		Grid:       geom.NewGrid(bounds, gridStep),
		Objects:    objects,
		GroundTris: groundTris,
	}
	s.index = buildIndex(s)
	return s
}

// Eye returns the camera position for a grid point: on the ground plane at
// eye height. Terrain is modelled as flat at Y=0 (the foothold ray trace of
// the paper reduces to this for a flat terrain mesh).
func (s *Scene) Eye(p geom.GridPoint) geom.Vec3 {
	return s.Grid.Pos(p).XZ3(EyeHeight)
}

// EyeAt returns the camera position for an arbitrary ground position.
func (s *Scene) EyeAt(p geom.Vec2) geom.Vec3 { return p.XZ3(EyeHeight) }

// Hit describes the nearest intersection found by Intersect.
type Hit struct {
	T      float64 // distance along the (unit-direction) ray
	Object *Object // nil when the ground plane was hit
	Point  geom.Vec3
}

// Intersect finds the nearest hit of r with hit distance in [tMin, tMax),
// considering scene objects and the ground plane at Y=0. It reports
// ok=false when nothing is hit inside the window. The [tMin, tMax) window
// is how near-BE (t < cutoff) and far-BE (t >= cutoff) rendering share one
// scene: an object crossing the cutoff contributes pixels to both, exactly
// as the paper permits (§4.3 footnote 2). q is per-goroutine scratch state
// from NewQuery.
func (s *Scene) Intersect(q *Query, r geom.Ray, tMin, tMax float64) (Hit, bool) {
	best := Hit{T: tMax}
	found := false

	// Ground plane at Y = 0.
	if r.Direction.Y < 0 {
		t := -r.Origin.Y / r.Direction.Y
		if t >= tMin && t < best.T {
			best = Hit{T: t, Object: nil, Point: r.At(t)}
			found = true
		}
	}

	if obj, t, ok := s.index.intersect(q, r, tMin, best.T); ok {
		best = Hit{T: t, Object: obj, Point: r.At(t)}
		found = true
	}
	return best, found
}

// TrianglesWithin returns the total triangle count of geometry within the
// given XZ radius of the ground position p: objects whose footprint
// intersects the disc (counted fully, as a renderer must process the whole
// mesh) plus terrain triangles over the disc area clipped to the world.
func (s *Scene) TrianglesWithin(q *Query, p geom.Vec2, radius float64) int {
	tris := s.terrainWithin(radius)
	s.index.forEachInDisc(q, p, radius, func(o *Object) bool {
		tris += o.Triangles
		return false
	})
	return tris
}

// TrianglesWithinExceeds reports whether TrianglesWithin(q, p, radius)
// exceeds limit. It counts the terrain first and stops walking the objects
// as soon as the running count passes limit. That answers the same because
// every object's triangle count is positive (Validate): the count only
// grows as the walk goes on.
func (s *Scene) TrianglesWithinExceeds(q *Query, p geom.Vec2, radius float64, limit int) bool {
	tris := s.terrainWithin(radius)
	if tris > limit {
		return true
	}
	return s.index.forEachInDisc(q, p, radius, func(o *Object) bool {
		tris += o.Triangles
		return tris > limit
	})
}

// terrainWithin is the terrain's triangle count over the disc area of the
// given radius, clipped to the world's area.
func (s *Scene) terrainWithin(radius float64) int {
	area := math.Pi * radius * radius
	if max := s.Bounds.Area(); area > max {
		area = max
	}
	return int(area * s.GroundTris)
}

// ObjectsWithin appends the IDs of objects whose footprint intersects the
// XZ disc (p, radius) to dst and returns it. The frame cache uses the
// near-BE object set to validate that a cached far-BE frame merges cleanly
// (§5.3, criterion 3).
func (s *Scene) ObjectsWithin(q *Query, dst []int, p geom.Vec2, radius float64) []int {
	s.index.forEachInDisc(q, p, radius, func(o *Object) bool {
		dst = append(dst, o.ID)
		return false
	})
	return dst
}

// NearSetSignature returns an order-independent hash of the set of object
// IDs within the XZ disc (p, radius). Two locations with the same signature
// have identical near-BE object sets.
func (s *Scene) NearSetSignature(q *Query, p geom.Vec2, radius float64) uint64 {
	ids := s.ObjectsWithin(q, nil, p, radius)
	// FNV-style order-independent combination: sum and xor of per-ID hashes.
	var sum, xor uint64
	for _, id := range ids {
		h := splitmix64(uint64(id) + 0x9E3779B97F4A7C15)
		sum += h
		xor ^= h
	}
	return sum ^ (xor << 1) ^ uint64(len(ids))
}

// TotalTriangles returns the triangle count of the whole scene including
// terrain.
func (s *Scene) TotalTriangles() int {
	tris := int(s.Bounds.Area() * s.GroundTris)
	for i := range s.Objects {
		tris += s.Objects[i].Triangles
	}
	return tris
}

// Validate performs internal consistency checks and returns an error
// describing the first violation found, if any.
func (s *Scene) Validate() error {
	for i := range s.Objects {
		o := &s.Objects[i]
		if o.Triangles <= 0 {
			return fmt.Errorf("world: object %d has non-positive triangle count", o.ID)
		}
		switch o.Kind {
		case KindSphere:
			if o.Radius <= 0 {
				return fmt.Errorf("world: sphere %d has non-positive radius", o.ID)
			}
		case KindBox:
			if o.Half.X <= 0 || o.Half.Y <= 0 || o.Half.Z <= 0 {
				return fmt.Errorf("world: box %d has non-positive extent", o.ID)
			}
		default:
			return fmt.Errorf("world: object %d has unknown kind %d", o.ID, o.Kind)
		}
	}
	return nil
}

func splitmix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

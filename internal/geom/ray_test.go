package geom

import (
	"math"
	"testing"
	"testing/quick"
)

func TestAABBIntersectRayThrough(t *testing.T) {
	box := AABB{Min: V3(-1, -1, -1), Max: V3(1, 1, 1)}
	r := Ray{Origin: V3(-5, 0, 0), Direction: V3(1, 0, 0)}
	tHit, _, ok := box.IntersectRaySpan(r)
	if !ok || !almostEq(tHit, 4) {
		t.Fatalf("hit = %v,%v want 4,true", tHit, ok)
	}
}

func TestAABBIntersectRayMiss(t *testing.T) {
	box := AABB{Min: V3(-1, -1, -1), Max: V3(1, 1, 1)}
	r := Ray{Origin: V3(-5, 3, 0), Direction: V3(1, 0, 0)}
	if _, _, ok := box.IntersectRaySpan(r); ok {
		t.Fatal("expected miss")
	}
	// Behind the origin.
	r = Ray{Origin: V3(5, 0, 0), Direction: V3(1, 0, 0)}
	if _, _, ok := box.IntersectRaySpan(r); ok {
		t.Fatal("expected miss behind origin")
	}
}

func TestAABBIntersectRayInside(t *testing.T) {
	box := AABB{Min: V3(-1, -1, -1), Max: V3(1, 1, 1)}
	r := Ray{Origin: V3(0, 0, 0), Direction: V3(0, 1, 0)}
	tIn, tOut, ok := box.IntersectRaySpan(r)
	if !ok || tIn > 0 || !almostEq(tOut, 1) {
		t.Fatalf("inside span = %v,%v,%v want entry <= 0, exit 1", tIn, tOut, ok)
	}
}

func TestAABBContains(t *testing.T) {
	box := AABB{Min: V3(0, 0, 0), Max: V3(1, 2, 3)}
	if !box.Contains(V3(0.5, 1, 2.9)) {
		t.Error("expected contained")
	}
	if box.Contains(V3(1.01, 1, 1)) {
		t.Error("expected outside")
	}
	if got := box.Center(); got != V3(0.5, 1, 1.5) {
		t.Errorf("Center = %v", got)
	}
}

func TestIntersectSphereHeadOn(t *testing.T) {
	r := Ray{Origin: V3(0, 0, -10), Direction: V3(0, 0, 1)}
	tHit, ok := IntersectSphereFrom(r, V3(0, 0, 0), 2, 0)
	if !ok || !almostEq(tHit, 8) {
		t.Fatalf("hit = %v,%v want 8,true", tHit, ok)
	}
}

func TestIntersectSphereInside(t *testing.T) {
	r := Ray{Origin: V3(0, 0, 0), Direction: V3(0, 0, 1)}
	tHit, ok := IntersectSphereFrom(r, V3(0, 0, 0), 2, 0)
	if !ok || !almostEq(tHit, 2) {
		t.Fatalf("inside hit = %v,%v want 2,true", tHit, ok)
	}
}

func TestIntersectSphereMiss(t *testing.T) {
	r := Ray{Origin: V3(0, 5, -10), Direction: V3(0, 0, 1)}
	if _, ok := IntersectSphereFrom(r, V3(0, 0, 0), 2, 0); ok {
		t.Fatal("expected miss")
	}
	// Sphere fully behind origin.
	r = Ray{Origin: V3(0, 0, 10), Direction: V3(0, 0, 1)}
	if _, ok := IntersectSphereFrom(r, V3(0, 0, 0), 2, 0); ok {
		t.Fatal("expected miss behind")
	}
}

// Property: any reported sphere hit point actually lies on the sphere.
func TestIntersectSphereHitOnSurface(t *testing.T) {
	f := func(ox, oy, oz, dx, dy, dz, cx, cy, cz float64, rad float64) bool {
		rad = 0.5 + math.Mod(math.Abs(rad), 10)
		d := V3(dx, dy, dz)
		if !isFinite(d) || d.Len() == 0 {
			return true
		}
		o, c := V3(ox, oy, oz), V3(cx, cy, cz)
		if !isFinite(o) || !isFinite(c) {
			return true
		}
		// Keep magnitudes modest so floating point tolerances hold.
		o = V3(math.Mod(o.X, 100), math.Mod(o.Y, 100), math.Mod(o.Z, 100))
		c = V3(math.Mod(c.X, 100), math.Mod(c.Y, 100), math.Mod(c.Z, 100))
		r := Ray{Origin: o, Direction: d.Norm()}
		tHit, ok := IntersectSphereFrom(r, c, rad, 0)
		if !ok {
			return true
		}
		return math.Abs(r.At(tHit).Dist(c)-rad) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestRayAt(t *testing.T) {
	r := Ray{Origin: V3(1, 1, 1), Direction: V3(0, 1, 0)}
	if got := r.At(3); got != V3(1, 4, 1) {
		t.Errorf("At = %v", got)
	}
}

func TestIntersectRaySpan(t *testing.T) {
	box := AABB{Min: V3(-1, -1, -1), Max: V3(1, 1, 1)}
	// Through the box: entry 4, exit 6.
	r := Ray{Origin: V3(-5, 0, 0), Direction: V3(1, 0, 0)}
	t0, t1, ok := box.IntersectRaySpan(r)
	if !ok || !almostEq(t0, 4) || !almostEq(t1, 6) {
		t.Fatalf("span = %v,%v,%v", t0, t1, ok)
	}
	// From inside: negative entry, positive exit.
	r = Ray{Origin: V3(0, 0, 0), Direction: V3(1, 0, 0)}
	t0, t1, ok = box.IntersectRaySpan(r)
	if !ok || t0 >= 0 || !almostEq(t1, 1) {
		t.Fatalf("inside span = %v,%v,%v", t0, t1, ok)
	}
	// Box fully behind: no hit.
	r = Ray{Origin: V3(5, 0, 0), Direction: V3(1, 0, 0)}
	if _, _, ok := box.IntersectRaySpan(r); ok {
		t.Fatal("behind-origin span accepted")
	}
	// Axis-parallel ray inside the slab.
	r = Ray{Origin: V3(0, 0, -9), Direction: V3(0, 0, 1)}
	t0, t1, ok = box.IntersectRaySpan(r)
	if !ok || !almostEq(t0, 8) || !almostEq(t1, 10) {
		t.Fatalf("axis span = %v,%v,%v", t0, t1, ok)
	}
	// Axis-parallel ray outside the slab: miss.
	r = Ray{Origin: V3(3, 0, -9), Direction: V3(0, 0, 1)}
	if _, _, ok := box.IntersectRaySpan(r); ok {
		t.Fatal("outside-slab span accepted")
	}
}

func TestIntersectSphereFromBackFace(t *testing.T) {
	// tMin inside the sphere: the back face is the first visible hit.
	r := Ray{Origin: V3(0, 0, -10), Direction: V3(0, 0, 1)}
	tHit, ok := IntersectSphereFrom(r, V3(0, 0, 0), 2, 9)
	if !ok || !almostEq(tHit, 12) {
		t.Fatalf("back-face hit = %v,%v want 12", tHit, ok)
	}
	// tMin beyond the sphere entirely: no hit.
	if _, ok := IntersectSphereFrom(r, V3(0, 0, 0), 2, 13); ok {
		t.Fatal("hit past the sphere accepted")
	}
}

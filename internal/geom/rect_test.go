package geom

import (
	"math"
	"testing"
	"testing/quick"
)

func TestRectBasics(t *testing.T) {
	r := NewRect(10, 20)
	if r.Width() != 10 || r.Depth() != 20 || r.Area() != 200 {
		t.Fatalf("dims wrong: %+v", r)
	}
	if got := r.Center(); got != V2(5, 10) {
		t.Errorf("Center = %v", got)
	}
}

func TestRectQuadrantsTileParent(t *testing.T) {
	r := Rect{1, 2, 9, 10}
	qs := r.Quadrants()
	var area float64
	for _, q := range qs {
		area += q.Area()
	}
	if area != r.Area() {
		t.Fatalf("quadrant areas %v != parent %v", area, r.Area())
	}
	// Every interior point belongs to exactly one quadrant.
	f := func(px, pz float64) bool {
		p := Vec2{1 + mod(px, 8), 2 + mod(pz, 8)}
		count := 0
		for _, q := range qs {
			if q.Contains(p) {
				count++
			}
		}
		return count == 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestRectContainsHalfOpen(t *testing.T) {
	r := Rect{0, 0, 1, 1}
	if !r.Contains(V2(0, 0)) {
		t.Error("min corner should be contained")
	}
	if r.Contains(V2(1, 1)) {
		t.Error("max corner should not be contained (half-open)")
	}
	if !r.ContainsClosed(V2(1, 1)) {
		t.Error("max corner should be contained (closed)")
	}
}

func TestRectClampPoint(t *testing.T) {
	r := Rect{0, 0, 10, 10}
	if got := r.ClampPoint(V2(-5, 20)); got != V2(0, 10) {
		t.Errorf("ClampPoint = %v", got)
	}
	if got := r.ClampPoint(V2(3, 4)); got != V2(3, 4) {
		t.Errorf("ClampPoint interior = %v", got)
	}
}

// mod maps any float (including infinities and NaN) into [0, m).
func mod(x, m float64) float64 {
	if math.IsNaN(x) || math.IsInf(x, 0) {
		return 0
	}
	v := math.Mod(x, m)
	if v < 0 {
		v += m
	}
	return v
}

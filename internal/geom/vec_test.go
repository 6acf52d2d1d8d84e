package geom

import (
	"math"
	"testing"
	"testing/quick"
)

func almostEq(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestVec3Basics(t *testing.T) {
	a := V3(1, 2, 3)
	b := V3(-4, 5, 0.5)
	if got := a.Add(b); got != V3(-3, 7, 3.5) {
		t.Errorf("Add = %v", got)
	}
	if got := a.Sub(b); got != V3(5, -3, 2.5) {
		t.Errorf("Sub = %v", got)
	}
	if got := a.Scale(2); got != V3(2, 4, 6) {
		t.Errorf("Scale = %v", got)
	}
	if got := a.Dot(b); !almostEq(got, -4+10+1.5) {
		t.Errorf("Dot = %v", got)
	}
	if got := V3(3, 4, 0).Len(); !almostEq(got, 5) {
		t.Errorf("Len = %v", got)
	}
}

func TestVec3NormUnitLength(t *testing.T) {
	f := func(x, y, z float64) bool {
		v := V3(x, y, z)
		if !isFinite(v) || v.Len() == 0 {
			return true
		}
		n := v.Norm()
		return math.Abs(n.Len()-1) < 1e-6
	}
	cfg := &quick.Config{MaxCount: 500}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestVec3NormZero(t *testing.T) {
	if got := (Vec3{}).Norm(); got != (Vec3{}) {
		t.Errorf("Norm of zero = %v", got)
	}
}

func TestDotCommutes(t *testing.T) {
	f := func(ax, ay, az, bx, by, bz float64) bool {
		a, b := V3(ax, ay, az), V3(bx, by, bz)
		if !isFinite(a) || !isFinite(b) {
			return true
		}
		return a.Dot(b) == b.Dot(a)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestVec2(t *testing.T) {
	a, b := V2(3, 4), V2(0, 0)
	if !almostEq(a.Len(), 5) {
		t.Errorf("Len = %v", a.Len())
	}
	if !almostEq(a.Dist(b), 5) {
		t.Errorf("Dist = %v", a.Dist(b))
	}
	if got := a.Norm().Len(); !almostEq(got, 1) {
		t.Errorf("Norm len = %v", got)
	}
	if got := b.Norm(); got != b {
		t.Errorf("Norm zero = %v", got)
	}
	if got := a.XZ3(7); got != V3(3, 7, 4) {
		t.Errorf("XZ3 = %v", got)
	}
}

func TestClamp(t *testing.T) {
	cases := []struct{ x, lo, hi, want float64 }{
		{-1, 0, 1, 0},
		{2, 0, 1, 1},
		{0.5, 0, 1, 0.5},
	}
	for _, c := range cases {
		if got := Clamp(c.x, c.lo, c.hi); got != c.want {
			t.Errorf("Clamp(%v) = %v, want %v", c.x, got, c.want)
		}
	}
}

func isFinite(v Vec3) bool {
	ok := func(x float64) bool { return !math.IsNaN(x) && !math.IsInf(x, 0) && math.Abs(x) < 1e12 }
	return ok(v.X) && ok(v.Y) && ok(v.Z)
}

package transport

import (
	"testing"

	"coterie/internal/geom"
)

// TestHeldRefsOrderAndOverflow pins the reference rule both ends apply:
// holding a point again keeps its place and its first value, overflow
// drops the oldest point by first hold (not by use), and Hold hands back
// the value it did not keep so the client can release that raster.
func TestHeldRefsOrderAndOverflow(t *testing.T) {
	var h HeldRefs[int]
	pt := func(i int) geom.GridPoint { return geom.GridPoint{I: i} }
	for i := 0; i < MaxHeldRefs; i++ {
		if v, ok := h.Hold(pt(i), i); ok {
			t.Fatalf("hold %d under the cap handed back %d", i, v)
		}
	}
	if v, ok := h.Hold(pt(0), -1); !ok || v != -1 {
		t.Fatalf("re-holding point 0 handed back %d, %v; want the new value -1", v, ok)
	}
	if v, ok := h.Get(pt(0)); !ok || v != 0 {
		t.Fatalf("point 0 holds %d, %v after a re-hold; want its first value 0", v, ok)
	}
	h.Get(pt(0)) // a lookup is not a use that reorders

	// Point 0 was held first and re-held since: it is still the oldest.
	if v, ok := h.Hold(pt(MaxHeldRefs), MaxHeldRefs); !ok || v != 0 {
		t.Fatalf("overflow handed back %d, %v; want the oldest value 0", v, ok)
	}
	if h.Len() != MaxHeldRefs {
		t.Fatalf("%d points held, want %d", h.Len(), MaxHeldRefs)
	}
	if _, ok := h.Get(pt(0)); ok {
		t.Fatal("the oldest point survived overflow")
	}
	var order []int
	h.Each(func(p geom.GridPoint, v int) {
		if p.I != v {
			t.Fatalf("point %v holds %d", p, v)
		}
		order = append(order, v)
	})
	for k, v := range order {
		if v != k+1 {
			t.Fatalf("held order %v, want 1..%d oldest first", order, MaxHeldRefs)
		}
	}
}

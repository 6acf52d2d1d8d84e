package world

import (
	"math"

	"coterie/internal/geom"
)

// index is a uniform 2-D grid over the XZ plane used to accelerate both ray
// casting and radius queries. Cells store the objects whose footprint
// overlaps them; a ray walks cells with a 2-D DDA and tests only the
// objects in the cells it crosses, finishing as soon as a confirmed hit is
// nearer than the entry distance of the next cell.
//
// The index itself is immutable after construction and safe for concurrent
// readers; the per-query deduplication state lives in Query values, one per
// goroutine.
type index struct {
	bounds     geom.Rect
	cellSize   float64
	cols, rows int
	cells      [][]int32 // object indices per cell
	// rects[i] is the clamped rectangle of cells that lists object i.
	rects []cellRect
	scene *Scene
}

// cellRect is an inclusive rectangle of index cells: columns c0..c1, rows
// r0..r1.
type cellRect struct{ c0, r0, c1, r1 int32 }

// Query carries the scratch state for spatial queries against one Scene.
// A Query is cheap (one uint32 per object, plus the candidates of the
// largest column it has gathered) but not safe for concurrent use; create
// one per goroutine with Scene.NewQuery.
type Query struct {
	visit []uint32
	stamp uint32

	// State of the column last gathered by Gather (column.go).
	col   Column
	cands []candidate
	// Scratch of Gather (gatherScratch): the column's binned objects, its
	// DDA steps, the step at which the walk entered each index column
	// (firstC) and row (firstR), each binned object's first step, and the
	// counting sort by it.
	in             []binEntry
	steps          []ddaStep
	firstC, firstR []int32
	first          []int32
	count, order   []int32
	// lone bins the one column of GatherColumn.
	lone             Bins
	loneSin, loneCos [1]float64
}

// NewQuery returns scratch state for queries against this scene.
func (s *Scene) NewQuery() *Query {
	return &Query{visit: make([]uint32, len(s.Objects))}
}

// gatherScratch sizes q's Gather scratch for columns of up to n binned
// objects and for a walk across the whole grid, in four allocations. n is
// the peak of the bins being gathered, which only grows, so once the bins
// have seen their largest frame a Query gathering from them never
// allocates.
func (q *Query) gatherScratch(s *Scene, n int) {
	if q.firstC != nil && cap(q.in) >= n {
		return
	}
	cols, rows := s.index.cols, s.index.rows
	walk := cols + rows
	buf := make([]int32, cols+rows+walk+2+2*n)
	q.firstC, q.firstR = buf[:cols:cols], buf[cols:cols+rows:cols+rows]
	buf = buf[cols+rows:]
	q.count, buf = buf[:0:walk+2], buf[walk+2:]
	q.first, q.order = buf[:0:n], buf[n:n:2*n]
	q.steps = make([]ddaStep, 0, walk)
	q.in = make([]binEntry, 0, n)
	q.cands = make([]candidate, 0, n)
}

// nextStamp advances the visitation epoch, resetting lazily on wraparound.
func (q *Query) nextStamp() uint32 {
	q.stamp++
	if q.stamp == 0 {
		for i := range q.visit {
			q.visit[i] = 0
		}
		q.stamp = 1
	}
	return q.stamp
}

// targetCells is the approximate number of index cells along the longer
// world axis. Chosen so typical scenes put a handful of objects per cell.
const targetCells = 96

func buildIndex(s *Scene) *index {
	longer := math.Max(s.Bounds.Width(), s.Bounds.Depth())
	cell := longer / targetCells
	if cell <= 0 {
		cell = 1
	}
	ix := &index{
		bounds:   s.Bounds,
		cellSize: cell,
		cols:     int(s.Bounds.Width()/cell) + 1,
		rows:     int(s.Bounds.Depth()/cell) + 1,
		scene:    s,
	}
	ix.cells = make([][]int32, ix.cols*ix.rows)
	ix.rects = make([]cellRect, len(s.Objects))
	for i := range s.Objects {
		b := s.Objects[i].Bounds()
		c0, r0 := ix.cellOf(b.Min.X, b.Min.Z)
		c1, r1 := ix.cellOf(b.Max.X, b.Max.Z)
		ix.rects[i] = cellRect{int32(c0), int32(r0), int32(c1), int32(r1)}
		for r := r0; r <= r1; r++ {
			for c := c0; c <= c1; c++ {
				k := r*ix.cols + c
				ix.cells[k] = append(ix.cells[k], int32(i))
			}
		}
	}
	return ix
}

// cellOf maps a world XZ coordinate to clamped cell coordinates.
func (ix *index) cellOf(x, z float64) (int, int) {
	c := int((x - ix.bounds.MinX) / ix.cellSize)
	r := int((z - ix.bounds.MinZ) / ix.cellSize)
	if c < 0 {
		c = 0
	}
	if r < 0 {
		r = 0
	}
	if c >= ix.cols {
		c = ix.cols - 1
	}
	if r >= ix.rows {
		r = ix.rows - 1
	}
	return c, r
}

// intersect finds the nearest object hit with t in [tMin, tMax). It walks
// the 2-D DDA from the ray origin; rays are assumed to start inside or near
// the world (true for all viewpoints).
func (ix *index) intersect(q *Query, r geom.Ray, tMin, tMax float64) (*Object, float64, bool) {
	if len(ix.scene.Objects) == 0 {
		return nil, 0, false
	}
	stamp := q.nextStamp()

	var best *Object
	bestT := tMax
	found := false

	// Test all objects in one cell, updating best.
	testCell := func(c, rr int) {
		for _, oi := range ix.cells[rr*ix.cols+c] {
			if q.visit[oi] == stamp {
				continue
			}
			q.visit[oi] = stamp
			o := &ix.scene.Objects[oi]
			if t, ok := o.IntersectFrom(r, tMin); ok && t < bestT {
				best, bestT, found = o, t, true
			}
		}
	}

	// DDA setup over the XZ projection of the ray.
	ox := r.Origin.X - ix.bounds.MinX
	oz := r.Origin.Z - ix.bounds.MinZ
	dx, dz := r.Direction.X, r.Direction.Z

	c, rr := ix.cellOf(r.Origin.X, r.Origin.Z)

	// A (near-)vertical ray stays in one cell column.
	horiz := math.Hypot(dx, dz)
	if horiz < 1e-12 {
		testCell(c, rr)
		return best, bestT, found
	}

	stepC, tMaxX, tDeltaX := ddaAxis(ox, dx, c, ix.cellSize)
	stepR, tMaxZ, tDeltaZ := ddaAxis(oz, dz, rr, ix.cellSize)

	for {
		testCell(c, rr)
		// Entry distance of the next cell; if we already have a nearer
		// confirmed hit, no later cell can beat it.
		next := math.Min(tMaxX, tMaxZ)
		if found && bestT <= next {
			return best, bestT, true
		}
		if next >= tMax {
			return best, bestT, found
		}
		if tMaxX < tMaxZ {
			tMaxX += tDeltaX
			c += stepC
			if c < 0 || c >= ix.cols {
				return best, bestT, found
			}
		} else {
			tMaxZ += tDeltaZ
			rr += stepR
			if rr < 0 || rr >= ix.rows {
				return best, bestT, found
			}
		}
	}
}

// ddaAxis sets up one axis of the 2-D DDA: step direction, parameter of the
// first cell boundary crossed, and parameter distance between boundaries.
func ddaAxis(o, d float64, cell int, size float64) (step int, tMax, tDelta float64) {
	switch {
	case d > 0:
		return 1, ((float64(cell)+1)*size - o) / d, size / d
	case d < 0:
		return -1, (float64(cell)*size - o) / d, -size / d
	}
	return 1, math.Inf(1), math.Inf(1)
}

// forEachInDisc calls fn once per object whose XZ footprint intersects the
// disc (p, radius), until fn returns true. It reports whether fn stopped
// the walk.
func (ix *index) forEachInDisc(q *Query, p geom.Vec2, radius float64, fn func(o *Object) (stop bool)) bool {
	stamp := q.nextStamp()
	c0, r0 := ix.cellOf(p.X-radius, p.Z-radius)
	c1, r1 := ix.cellOf(p.X+radius, p.Z+radius)
	for r := r0; r <= r1; r++ {
		for c := c0; c <= c1; c++ {
			for _, oi := range ix.cells[r*ix.cols+c] {
				if q.visit[oi] == stamp {
					continue
				}
				q.visit[oi] = stamp
				o := &ix.scene.Objects[oi]
				if footprintIntersectsDisc(o, p, radius) && fn(o) {
					return true
				}
			}
		}
	}
	return false
}

// footprintIntersectsDisc tests the object's XZ footprint against a disc.
func footprintIntersectsDisc(o *Object, p geom.Vec2, radius float64) bool {
	switch o.Kind {
	case KindSphere:
		dx, dz, r := o.Center.X-p.X, o.Center.Z-p.Z, radius+o.Radius
		return dx*dx+dz*dz <= r*r
	default:
		// Distance from disc centre to the box footprint rectangle.
		dx := math.Max(0, math.Max(o.Center.X-o.Half.X-p.X, p.X-(o.Center.X+o.Half.X)))
		dz := math.Max(0, math.Max(o.Center.Z-o.Half.Z-p.Z, p.Z-(o.Center.Z+o.Half.Z)))
		return dx*dx+dz*dz <= radius*radius
	}
}

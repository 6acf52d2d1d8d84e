package world

import (
	"math"
	"slices"

	"coterie/internal/geom"
)

// Column-coherent traversal. All rays of one equirectangular panorama column
// share a yaw, so their XZ projections are one 2-D ray and the per-ray DDA of
// index.intersect would walk the same cells for each of them. Gather walks
// those cells once, meeting only the objects the frame's Bins (bins.go) gave
// the column, and IntersectColumn answers each row from the gathered
// candidates, returning what Scene.Intersect returns for that ray:
//
//   - candidates are kept in the order the per-ray walk first meets them
//     (cell order along the ray, list order inside a cell), so the strict
//     `t < best` comparison breaks ties the same way;
//   - a candidate is dropped, or skipped for a row, only when no ray of the
//     column (of that row) can hit it inside the window, judged from its own
//     extents with the slack below — never from the extent of the cell that
//     lists it, since a clamped border cell also lists objects that overhang
//     Scene.Bounds and are hit far outside it;
//   - a row stops at the first candidate whose cell is entered at or beyond
//     its best hit so far (or its window end), which is the per-cell rule of
//     index.intersect expressed in horizontal distance.
//
// The traversal is also output-sensitive: Gather returns the hull of its
// candidates' row intervals and Column.GroundRows the rows that see the
// ground plane. A row outside both is one for which IntersectColumn's loop
// breaks before testing any object and whose ground test fails, so a caster
// writes its sky without building the ray.

// Column is the geometry the rays of one panorama column share.
type Column struct {
	Eye            geom.Vec3
	SinYaw, CosYaw float64 // unit XZ direction (SinYaw, CosYaw)
	// Tan, Cos and Sin hold tan(pitch), cos(pitch) and sin(pitch) per
	// panorama row, top to bottom: pitch falls strictly from near +90 to
	// near -90 degrees. Row y's ray starts at Eye with direction
	// (Cos[y]*SinYaw, Sin[y], Cos[y]*CosYaw). Sin is read by GroundRows only.
	Tan, Cos, Sin []float64
	// RowLo, RowHi select the rows [RowLo, RowHi) that will be cast.
	RowLo, RowHi int
	// TMin, TMax is the hit-distance window, as in Scene.Intersect.
	TMin, TMax float64
}

// candidate is one object some ray of the gathered column may hit.
type candidate struct {
	obj *Object
	// entry is the horizontal distance at which the walk enters the first
	// cell listing the object (0 for the eye's own cell).
	entry float64
	// lo, hi is the inclusive row interval whose rays can reach the object's
	// vertical extent over its footprint; restLo, restHi bound the intervals
	// of this and every later candidate, so a row outside them is finished.
	lo, hi         int32
	restLo, restHi int32
	// box is obj.Bounds() of a box, computed once per column rather than
	// once per row that tests it.
	box geom.AABB
}

// intersectFrom is cd.obj.IntersectFrom(r, tMin).
func (cd *candidate) intersectFrom(r geom.Ray, tMin float64) (float64, bool) {
	if cd.obj.Kind == KindSphere {
		return geom.IntersectSphereFrom(r, cd.obj.Center, cd.obj.Radius, tMin)
	}
	return intersectBoxFrom(cd.box, r, tMin)
}

// Slack of consider's culls. Every bound is widened by it, so rounding in
// the bounds can only keep a candidate that a ray then misses, never drop
// one that a ray hits. spanEps is metres of horizontal distance, relEps is
// relative.
const (
	spanEps = 1e-9
	relEps  = 1e-9
)

// GroundRows returns the hull [lo, hi) of the rows of the window whose ray
// meets the ground plane inside [TMin, TMax): the test IntersectColumn
// applies, on the same operands. It depends on the eye height, the window
// and the row alone, so one call serves every column of a panorama. The
// hull is the accepted set itself, since the hit distance is monotone in
// the row; without a ground row it is (RowHi, RowLo).
func (col *Column) GroundRows() (lo, hi int) {
	lo, hi = col.RowHi, col.RowLo
	for y := col.RowLo; y < col.RowHi; y++ {
		if col.Sin[y] < 0 {
			if t := -col.Eye.Y / col.Sin[y]; t >= col.TMin && t < col.TMax {
				lo, hi = min(lo, y), y+1
			}
		}
	}
	return lo, hi
}

// GatherColumn gathers a lone column into q for IntersectColumn: Gather
// over bins of that one column. It returns Gather's row hull.
func (s *Scene) GatherColumn(q *Query, col *Column) (lo, hi int) {
	q.loneSin[0], q.loneCos[0] = col.SinYaw, col.CosYaw
	q.lone.setColumns(q.loneSin[:], q.loneCos[:])
	q.lone.setRows(col.Tan)
	s.Bin(&q.lone, col, 1)
	q.lone.Run(0)
	return s.Gather(q, &q.lone, 0)
}

// ddaStep is one cell of a column's walk and the horizontal distance at
// which the walk enters it.
type ddaStep struct {
	c, r  int32
	entry float64
}

// Gather leaves column x of the binned frame b in q for IntersectColumn. It
// walks the column's cells as index.intersect would, recording only the
// steps, and finds where the walk first meets each object binned to the
// column from the object's cell rectangle: a straight walk is monotone in
// both axes, so it enters a rectangle at most once, at the first step that
// has reached the rectangle's near edge in both axes, and it is inside
// then unless it has already passed a far edge. The candidates come out in
// the order the cell-list walk first listed them — by that step, then by
// index, since every cell lists its objects in ascending index — with the
// entry distance the walk accumulated at that step. It returns the hull
// [lo, hi) of the candidates' row intervals: IntersectColumn tests no
// object for a row outside it. Without a candidate it is (RowHi, RowLo),
// so that min and max union either hull with another.
func (s *Scene) Gather(q *Query, b *Bins, x int) (lo, hi int) {
	q.gatherScratch(s, b.peak())
	q.col = b.col
	col := &q.col
	col.SinYaw, col.CosYaw = b.sinYaw[x], b.cosYaw[x]
	q.cands = q.cands[:0]
	in := q.in[:0]
	for i := range b.parts {
		p := &b.parts[i]
		in = append(in, p.entries[p.start[x]:p.start[x+1]]...)
	}
	q.in = in
	if len(in) == 0 {
		return col.RowHi, col.RowLo
	}
	ix := s.index

	// 2-D DDA as in index.intersect, with a unit direction: parameters are
	// horizontal distances from the eye. The walk ends, as the cell-list
	// walk does, at TMax or the grid edge, or once it has passed the far
	// edge of every binned rectangle in either axis.
	ox := col.Eye.X - ix.bounds.MinX
	oz := col.Eye.Z - ix.bounds.MinZ
	c, rr := ix.cellOf(col.Eye.X, col.Eye.Z)
	stepC, tMaxX, tDeltaX := ddaAxis(ox, col.SinYaw, c, ix.cellSize)
	stepR, tMaxZ, tDeltaZ := ddaAxis(oz, col.CosYaw, rr, ix.cellSize)
	endC, endR := -stepC, -stepR
	if stepC < 0 {
		endC = ix.cols
	}
	if stepR < 0 {
		endR = ix.rows
	}
	for _, e := range in {
		rc := &ix.rects[e.obj]
		if stepC > 0 {
			endC = max(endC, int(rc.c1))
		} else {
			endC = min(endC, int(rc.c0))
		}
		if stepR > 0 {
			endR = max(endR, int(rc.r1))
		} else {
			endR = min(endR, int(rc.r0))
		}
	}
	steps := append(q.steps[:0], ddaStep{int32(c), int32(rr), 0})
	c0, r0 := c, rr
	for {
		// A cell entered at horizontal distance d is entered at ray
		// distance d/cos(pitch) >= d, so past TMax every row's walk has
		// ended.
		entry := min(tMaxX, tMaxZ)
		if entry >= col.TMax {
			break
		}
		if tMaxX < tMaxZ {
			tMaxX += tDeltaX
			c += stepC
			if c < 0 || c >= ix.cols || (c-endC)*stepC > 0 {
				break
			}
			q.firstC[c] = int32(len(steps))
		} else {
			tMaxZ += tDeltaZ
			rr += stepR
			if rr < 0 || rr >= ix.rows || (rr-endR)*stepR > 0 {
				break
			}
			q.firstR[rr] = int32(len(steps))
		}
		steps = append(steps, ddaStep{int32(c), int32(rr), entry})
	}
	q.steps = steps
	last := steps[len(steps)-1]

	// The first step of each binned object (-1 unvisited), then the
	// objects counting-sorted by it, stable: ascending index within a step.
	first := q.first[:0]
	count := slices.Grow(q.count[:0], len(steps)+2)[:len(steps)+2]
	clear(count)
	for _, e := range in {
		rc := &ix.rects[e.obj]
		nearC, farC := int(rc.c0), int(rc.c1)
		if stepC < 0 {
			nearC, farC = farC, nearC
		}
		nearR, farR := int(rc.r0), int(rc.r1)
		if stepR < 0 {
			nearR, farR = farR, nearR
		}
		kc, okC := firstStep(q.firstC, nearC, stepC, c0, int(last.c))
		kr, okR := firstStep(q.firstR, nearR, stepR, r0, int(last.r))
		k := max(kc, kr)
		if !okC || !okR {
			k = -1
		} else if st := &steps[k]; (farC-int(st.c))*stepC < 0 || (farR-int(st.r))*stepR < 0 {
			k = -1 // past a far edge when it reached the other near one
		}
		first = append(first, k)
		count[k+2]++
	}
	// Prefix sums make count[k+1] the first slot of step k.
	for k := 1; k < len(count); k++ {
		count[k] += count[k-1]
	}
	order := slices.Grow(q.order[:0], len(in))[:len(in)]
	for i, k := range first {
		order[count[k+1]] = int32(i)
		count[k+1]++
	}
	q.first, q.count, q.order = first, count, order

	for _, i := range order[count[0]:] {
		e := &in[i]
		entry := steps[first[i]].entry
		o := &s.Objects[e.obj]
		if e.wide() {
			q.consider(o, entry)
			continue
		}
		q.cands = append(q.cands, candidate{obj: o, entry: entry, lo: e.lo, hi: e.hi})
		if o.Kind != KindSphere {
			q.cands[len(q.cands)-1].box = o.Bounds()
		}
	}

	restLo, restHi := int32(col.RowHi), int32(col.RowLo-1)
	for i := len(q.cands) - 1; i >= 0; i-- {
		cd := &q.cands[i]
		restLo, restHi = min(restLo, cd.lo), max(restHi, cd.hi)
		cd.restLo, cd.restHi = restLo, restHi
	}
	return int(restLo), int(restHi) + 1
}

// firstStep returns the first step at which a walk moving step (+-1) per
// move from index from to index to has reached near: 0 when it starts at
// or past near, the step first[near] recorded when it moved there, and
// false when it never gets there.
func firstStep(first []int32, near, step, from, to int) (int32, bool) {
	switch {
	case (near-from)*step <= 0:
		return 0, true
	case (near-to)*step > 0:
		return 0, false
	}
	return first[near], true
}

// consider appends o as a candidate unless no ray of the column can hit it
// inside the window.
func (q *Query) consider(o *Object, entry float64) {
	col := &q.col
	// Horizontal span [s0, s1] over which the 2-D ray is above the object's
	// XZ footprint, and the object's vertical extent relative to the eye.
	var s0, s1, up, down float64
	var box geom.AABB
	switch o.Kind {
	case KindSphere:
		ocx, ocz := col.Eye.X-o.Center.X, col.Eye.Z-o.Center.Z
		b := ocx*col.SinYaw + ocz*col.CosYaw
		cc := ocx*ocx + ocz*ocz - o.Radius*o.Radius
		disc := b*b - cc
		if disc < -relEps*(b*b+math.Abs(cc)) {
			return
		}
		sq := math.Sqrt(max(disc, 0))
		s0, s1 = -b-sq, -b+sq
		up, down = o.Center.Y+o.Radius-col.Eye.Y, o.Center.Y-o.Radius-col.Eye.Y
	default:
		box = o.Bounds()
		s0, s1 = math.Inf(-1), math.Inf(1)
		if !clipSlab(&s0, &s1, col.Eye.X, col.SinYaw, box.Min.X, box.Max.X) ||
			!clipSlab(&s0, &s1, col.Eye.Z, col.CosYaw, box.Min.Z, box.Max.Z) {
			return
		}
		up, down = box.Max.Y-col.Eye.Y, box.Min.Y-col.Eye.Y
	}
	if s1 < -spanEps {
		return // behind the eye for every row
	}
	s0 = max(s0-spanEps, 0)
	s1 += 2 * spanEps

	// Distance window: every point of the object above the span lies
	// between these (squared) distances from the eye.
	vNear := max(0, max(down, -up))
	vFar := max(math.Abs(up), math.Abs(down))
	if s1*s1+vFar*vFar < col.TMin*col.TMin*(1-relEps) || s0*s0+vNear*vNear > col.TMax*col.TMax*(1+relEps) {
		return
	}

	// Rows: the ray of a row is at height s*tan(pitch) above the eye at
	// horizontal distance s, so it meets [down, up] somewhere in [s0, s1]
	// only if tan(pitch) lies in [tanLo, tanHi].
	tanHi, tanLo := math.Inf(1), math.Inf(-1)
	if up < 0 {
		tanHi = up / s1
	} else if s0 > 0 {
		tanHi = up / s0
	}
	if down > 0 {
		tanLo = down / s1
	} else if s0 > 0 {
		tanLo = down / s0
	}
	tanHi += relEps * (1 + math.Abs(tanHi))
	tanLo -= relEps * (1 + math.Abs(tanLo))
	// Tan falls with the row index: lo is the first row at or below tanHi,
	// hi the last row above tanLo.
	rows := col.Tan[col.RowLo:col.RowHi]
	lo := col.RowLo + firstAtMost(rows, tanHi)
	hi := col.RowLo + firstAtMost(rows, tanLo) - 1
	if lo > hi {
		return
	}
	q.cands = append(q.cands, candidate{obj: o, box: box, entry: entry, lo: int32(lo), hi: int32(hi)})
}

// clipSlab narrows [*s0, *s1] to where o + s*d lies in [lo, hi] and reports
// whether, within spanEps, anything is left.
func clipSlab(s0, s1 *float64, o, d, lo, hi float64) bool {
	if d == 0 {
		return o >= lo && o <= hi
	}
	a, b := (lo-o)/d, (hi-o)/d
	if a > b {
		a, b = b, a
	}
	*s0, *s1 = max(*s0, a), min(*s1, b)
	return *s0 <= *s1+spanEps
}

// firstAtMost returns the first index of the strictly decreasing tan whose
// value is <= v, len(tan) if there is none.
func firstAtMost(tan []float64, v float64) int {
	lo, hi := 0, len(tan)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if tan[mid] <= v {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}

// IntersectColumn is Scene.Intersect for the ray r of row `row` of the column
// last gathered into q: nearest hit with distance in the column's
// [TMin, TMax) among scene objects and the ground plane.
func (s *Scene) IntersectColumn(q *Query, row int, r geom.Ray) (Hit, bool) {
	col := &q.col
	best := Hit{T: col.TMax}
	found := false
	if r.Direction.Y < 0 {
		t := -r.Origin.Y / r.Direction.Y
		if t >= col.TMin && t < best.T {
			best = Hit{T: t, Object: nil, Point: r.At(t)}
			found = true
		}
	}

	// reach is the horizontal distance of the best hit so far (initially of
	// the window end). As in index.intersect the rule is applied on entering
	// a cell: objects first listed in a cell entered at or beyond reach
	// cannot be nearer.
	var obj *Object
	bestT := best.T
	cos := col.Cos[row]
	reach := bestT * cos
	cell := 0.0 // entry distance of the cell being tested
	y := int32(row)
	for i := range q.cands {
		cd := &q.cands[i]
		if y < cd.restLo || y > cd.restHi {
			break
		}
		if cd.entry != cell {
			if cd.entry >= reach {
				break
			}
			cell = cd.entry
		}
		if y < cd.lo || y > cd.hi {
			continue
		}
		if t, ok := cd.intersectFrom(r, col.TMin); ok && t < bestT {
			obj, bestT = cd.obj, t
			reach = t * cos
		}
	}
	if obj != nil {
		best = Hit{T: bestT, Object: obj, Point: r.At(bestT)}
		found = true
	}
	return best, found
}

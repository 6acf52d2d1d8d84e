package world

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"coterie/internal/geom"
)

// columnRows builds the per-row tables of an h-row equirectangular column.
func columnRows(h int) (tan, cos, sin []float64) {
	tan, cos, sin = make([]float64, h), make([]float64, h), make([]float64, h)
	for y := range tan {
		pitch := math.Pi/2 - math.Pi*(float64(y)+0.5)/float64(h)
		cos[y], sin[y] = math.Cos(pitch), math.Sin(pitch)
		tan[y] = sin[y] / cos[y]
	}
	return tan, cos, sin
}

// checkColumn gathers one column and requires every row's IntersectColumn
// to return exactly what the per-ray Scene.Intersect returns. It reports
// how many rays hit an object at a point for which beyond holds.
func checkColumn(t *testing.T, s *Scene, col Column, sin []float64, beyond func(Hit) bool) int {
	t.Helper()
	q, ref := s.NewQuery(), s.NewQuery()
	s.GatherColumn(q, &col)
	n := 0
	for y := col.RowLo; y < col.RowHi; y++ {
		dir := geom.V3(col.Cos[y]*col.SinYaw, sin[y], col.Cos[y]*col.CosYaw)
		r := geom.Ray{Origin: col.Eye, Direction: dir}
		want, wantOK := s.Intersect(ref, r, col.TMin, col.TMax)
		got, ok := s.IntersectColumn(q, y, r)
		if ok != wantOK || (ok && got != want) {
			t.Fatalf("eye %v yaw (%.4f,%.4f) row %d window [%v,%v): column %+v %v, per-ray %+v %v",
				col.Eye, col.SinYaw, col.CosYaw, y, col.TMin, col.TMax, got, ok, want, wantOK)
		}
		if ok && got.Object != nil && beyond(got) {
			n++
		}
	}
	return n
}

// columnScene is a random scene of boxes and spheres, some overhanging the
// bounds.
func columnScene(rng *rand.Rand) *Scene {
	objs := make([]Object, 160)
	for i := range objs {
		c := geom.V3(-6+rng.Float64()*112, rng.Float64()*4, -6+rng.Float64()*112)
		if i%3 == 0 {
			objs[i] = Object{ID: i, Kind: KindBox, Center: c, Triangles: 10,
				Half: geom.V3(0.5+rng.Float64()*3, 0.5+rng.Float64()*3, 0.5+rng.Float64()*3)}
		} else {
			objs[i] = Object{ID: i, Kind: KindSphere, Center: c, Triangles: 10, Radius: 0.3 + rng.Float64()*2.5}
		}
	}
	return New("column", geom.NewRect(100, 100), 0.5, objs, 0)
}

// randomColumn draws an eye, a yaw and, on some trials, a distance window
// and a row window for an h-row column.
func randomColumn(rng *rand.Rand, trial, h int, tan, cos, sin []float64) Column {
	yaw := rng.Float64() * 2 * math.Pi
	col := Column{
		Eye:    geom.V3(rng.Float64()*100, 0.3+rng.Float64()*3, rng.Float64()*100),
		SinYaw: math.Sin(yaw), CosYaw: math.Cos(yaw),
		Tan: tan, Cos: cos, Sin: sin, RowHi: h, TMax: math.Inf(1),
	}
	if trial%2 == 0 {
		col.TMin = rng.Float64() * 20
	}
	if trial%3 == 0 {
		col.TMax = col.TMin + rng.Float64()*40
	}
	if trial%5 == 0 {
		col.RowLo = rng.Intn(h / 2)
		col.RowHi = col.RowLo + 1 + rng.Intn(h/2)
	}
	return col
}

// Property: the column traversal agrees with the per-ray walk on a random
// scene, for random eyes, yaws, distance windows and row windows.
func TestColumnMatchesIntersect(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	s := columnScene(rng)
	const h = 48
	tan, cos, sin := columnRows(h)
	for trial := 0; trial < 400; trial++ {
		checkColumn(t, s, randomColumn(rng, trial, h, tan, cos, sin), sin, func(Hit) bool { return false })
	}
}

// Property: a row outside the live interval — the hull of the candidates'
// rows GatherColumn returns and of Column.GroundRows — hits nothing, so a
// caster may show its sky without asking; and GroundRows is exactly the set
// of rows the ground test accepts, not just their hull.
func TestLiveRowsCoverEveryHit(t *testing.T) {
	rng := rand.New(rand.NewSource(78))
	s := columnScene(rng)
	q := s.NewQuery()
	const h = 48
	tan, cos, sin := columnRows(h)
	culled, empty := 0, 0
	for trial := 0; trial < 1500; trial++ {
		col := randomColumn(rng, trial, h, tan, cos, sin)
		if trial%7 == 0 {
			col.Eye.Y = 6 + rng.Float64()*30 // above every object
		}
		gLo, gHi := col.GroundRows()
		if gLo >= gHi {
			empty++
		}
		for y := col.RowLo; y < col.RowHi; y++ {
			hits := false
			if sin[y] < 0 {
				tg := -col.Eye.Y / sin[y]
				hits = tg >= col.TMin && tg < col.TMax
			}
			if in := y >= gLo && y < gHi; in != hits {
				t.Fatalf("eye height %v window [%v,%v) rows [%d,%d): ground rows [%d,%d) but row %d ground hit = %v",
					col.Eye.Y, col.TMin, col.TMax, col.RowLo, col.RowHi, gLo, gHi, y, hits)
			}
		}
		lo, hi := s.GatherColumn(q, &col)
		lo, hi = min(lo, gLo), max(hi, gHi)
		for y := col.RowLo; y < col.RowHi; y++ {
			if y >= lo && y < hi {
				continue
			}
			culled++
			dir := geom.V3(cos[y]*col.SinYaw, sin[y], cos[y]*col.CosYaw)
			if hit, ok := s.IntersectColumn(q, y, geom.Ray{Origin: col.Eye, Direction: dir}); ok {
				t.Fatalf("eye %v yaw (%.4f,%.4f) window [%v,%v): row %d is outside the live rows [%d,%d) but hits %+v",
					col.Eye, col.SinYaw, col.CosYaw, col.TMin, col.TMax, y, lo, hi, hit)
			}
		}
	}
	if culled == 0 || empty == 0 {
		t.Fatalf("%d culled rows, %d columns without a ground row: the property was not exercised", culled, empty)
	}
}

// Regression: the per-ray walk returns at the grid edge, so an object that
// overhangs Scene.Bounds is found only through the clamped border cells
// that list it, at hit points far outside those cells. A cell- or
// candidate-level cull that reasons from the extent of the listing cell
// (as a near-clip skip of cells nearer than tMin would) drops those hits.
// The box reaches below the ground plane so that downward rays whose ground
// hit falls before tMin still reach it. The overhang is on the MinX side:
// there cell 0 is a border cell inside the bounds, whereas on the max side
// the index keeps one more cell past the bounds.
func TestColumnFindsOverhangThroughBorderCell(t *testing.T) {
	objs := []Object{
		{ID: 0, Kind: KindBox, Center: geom.V3(-12, 1, 20), Half: geom.V3(14, 3, 4), Triangles: 10},
		{ID: 1, Kind: KindSphere, Center: geom.V3(-7, 2, 31), Radius: 8, Triangles: 10},
		{ID: 2, Kind: KindSphere, Center: geom.V3(28, 1, 12), Radius: 1, Triangles: 10},
	}
	s := New("edge", geom.NewRect(40, 40), 0.5, objs, 0)
	const h, w = 64, 720
	tan, cos, sin := columnRows(h)
	outside := func(hit Hit) bool { return hit.Point.X < s.Bounds.MinX-1 }
	for _, eye := range []geom.Vec3{
		geom.V3(10, EyeHeight, 20),  // interior, 10 m from the edge
		geom.V3(0.1, EyeHeight, 26), // in a border cell that lists the sphere
	} {
		for _, win := range [][2]float64{
			{0, math.Inf(1)},
			{15, math.Inf(1)}, // tMin beyond the border cell
			{13, 60},
			{0, 12},
		} {
			beyond, down := 0, 0
			for x := 0; x < w; x++ {
				yaw := -math.Pi + 2*math.Pi*(float64(x)+0.5)/w
				col := Column{
					Eye: eye, SinYaw: math.Sin(yaw), CosYaw: math.Cos(yaw),
					Tan: tan, Cos: cos, RowHi: h, TMin: win[0], TMax: win[1],
				}
				beyond += checkColumn(t, s, col, sin, outside)
				col.RowLo = h/2 + 2 // downward rays only
				down += checkColumn(t, s, col, sin, outside)
			}
			// Every window but the short near one reaches the overhang.
			if win[1] > 12 && (beyond == 0 || down == 0) {
				t.Errorf("eye %v window %v: %d hits beyond the grid edge (%d on downward rays), want some",
					eye, win, beyond, down)
			}
		}
	}
}

// gatherRef is the reference gather: the cell-list walk the bins replaced.
// It walks the index along the column's horizontal direction, as
// index.intersect does, and considers every object the first time a cell
// lists it, at that cell's entry distance, deduplicating with q's visit
// stamps. It returns the candidates in the order found.
func (s *Scene) gatherRef(q *Query, col *Column) []candidate {
	q.col = *col
	q.cands = q.cands[:0]
	if len(s.Objects) == 0 {
		return nil
	}
	ix := s.index
	stamp := q.nextStamp()
	ox := col.Eye.X - ix.bounds.MinX
	oz := col.Eye.Z - ix.bounds.MinZ
	c, rr := ix.cellOf(col.Eye.X, col.Eye.Z)
	stepC, tMaxX, tDeltaX := ddaAxis(ox, col.SinYaw, c, ix.cellSize)
	stepR, tMaxZ, tDeltaZ := ddaAxis(oz, col.CosYaw, rr, ix.cellSize)
	entry := 0.0
	for {
		for _, oi := range ix.cells[rr*ix.cols+c] {
			if q.visit[oi] == stamp {
				continue
			}
			q.visit[oi] = stamp
			q.consider(&s.Objects[oi], entry)
		}
		entry = min(tMaxX, tMaxZ)
		if entry >= col.TMax {
			break
		}
		if tMaxX < tMaxZ {
			tMaxX += tDeltaX
			c += stepC
			if c < 0 || c >= ix.cols {
				break
			}
		} else {
			tMaxZ += tDeltaZ
			rr += stepR
			if rr < 0 || rr >= ix.rows {
				break
			}
		}
	}
	return append([]candidate(nil), q.cands...)
}

// panoramaColumns returns the unit XZ directions of a w-column
// equirectangular panorama's columns, yaw rising from -pi.
func panoramaColumns(w int) (sinYaw, cosYaw []float64) {
	sinYaw, cosYaw = make([]float64, w), make([]float64, w)
	for x := range sinYaw {
		yaw := -math.Pi + 2*math.Pi*(float64(x)+0.5)/float64(w)
		sinYaw[x], cosYaw[x] = math.Sin(yaw), math.Cos(yaw)
	}
	return sinYaw, cosYaw
}

// checkFrame bins the scene for a w x h panorama from eye over the window
// [tMin, tMax) in the given number of parts, gathers every column, and
// requires of each: the candidates' entries never fall; every candidate of
// the reference gather is there, in the same relative order, with the same
// entry and a row interval containing the reference's; and, when rows is
// set, every row answers what the per-ray Scene.Intersect answers. It
// returns how many reference candidates it matched.
func checkFrame(t testing.TB, s *Scene, eye geom.Vec3, tMin, tMax float64, w, h, parts int, rows bool) int {
	t.Helper()
	tan, cos, sin := columnRows(h)
	sinYaw, cosYaw := panoramaColumns(w)
	b := NewBins(sinYaw, cosYaw, tan)
	col := Column{Eye: eye, Tan: tan, Cos: cos, Sin: sin, RowHi: h, TMin: tMin, TMax: tMax}
	s.Bin(b, &col, parts)
	for i := 0; i < b.Parts(); i++ {
		b.Run(i)
	}
	q, ref := s.NewQuery(), s.NewQuery()
	matched := 0
	for x := 0; x < w; x++ {
		col.SinYaw, col.CosYaw = sinYaw[x], cosYaw[x]
		lo, hi := s.Gather(q, b, x)
		want := s.gatherRef(ref, &col)
		got := q.cands
		where := func() string {
			return fmt.Sprintf("eye %v window [%v,%v) column %d of %d", eye, tMin, tMax, x, w)
		}
		for i := 1; i < len(got); i++ {
			if got[i].entry < got[i-1].entry {
				t.Fatalf("%s: candidate %d entry %v after %v", where(), i, got[i].entry, got[i-1].entry)
			}
		}
		j := 0
		for _, wc := range want {
			for j < len(got) && got[j].obj != wc.obj {
				j++
			}
			if j == len(got) {
				t.Fatalf("%s: reference candidate object %d (entry %v) missing or out of order", where(), wc.obj.ID, wc.entry)
			}
			if g := got[j]; g.entry != wc.entry || g.lo > wc.lo || g.hi < wc.hi {
				t.Fatalf("%s: object %d entry %v rows [%d,%d], reference entry %v rows [%d,%d]",
					where(), wc.obj.ID, g.entry, g.lo, g.hi, wc.entry, wc.lo, wc.hi)
			}
			if int(wc.lo) < lo || int(wc.hi) >= hi {
				t.Fatalf("%s: live rows [%d,%d) miss reference rows [%d,%d]", where(), lo, hi, wc.lo, wc.hi)
			}
			j++
			matched++
		}
		if !rows {
			continue
		}
		for y := 0; y < h; y++ {
			dir := geom.V3(cos[y]*col.SinYaw, sin[y], cos[y]*col.CosYaw)
			r := geom.Ray{Origin: eye, Direction: dir}
			wantHit, wantOK := s.Intersect(ref, r, tMin, tMax)
			gotHit, ok := s.IntersectColumn(q, y, r)
			if ok != wantOK || (ok && gotHit != wantHit) {
				t.Fatalf("%s row %d: column %+v %v, per-ray %+v %v", where(), y, gotHit, ok, wantHit, wantOK)
			}
		}
	}
	return matched
}

// Property: the binned gather keeps every candidate of the cell-list walk,
// in its order and with its entry, and every row answers what
// Scene.Intersect answers, on random scenes with objects overhanging the
// bounds (found through clamped border cells), for eyes inside and outside
// the bounds, far-BE and near-BE windows, split into one and three parts.
func TestGatherMatchesCellListWalk(t *testing.T) {
	rng := rand.New(rand.NewSource(79))
	matched := 0
	for scene := 0; scene < 4; scene++ {
		s := columnScene(rng)
		for trial := 0; trial < 6; trial++ {
			eye := geom.V3(-8+rng.Float64()*116, 0.3+rng.Float64()*3, -8+rng.Float64()*116)
			tMin, tMax := 0.0, math.Inf(1)
			switch trial % 3 {
			case 1:
				tMin = rng.Float64() * 20
			case 2:
				tMax = 2 + rng.Float64()*30
			}
			matched += checkFrame(t, s, eye, tMin, tMax, 96, 32, 1+2*(trial%2), true)
		}
	}
	if matched == 0 {
		t.Fatal("no reference candidates: the property was not exercised")
	}
}

// Regression: an object that a column's ray only grazes — within
// consider's slack outside its footprint — is a candidate of the cell-list
// walk, so binning must keep it although the column lies just outside the
// footprint's exact angular extent. Each object here is placed so against
// one column: spheres on either side of the ray, boxes with a corner on it
// from each quadrant, some across the yaw +-pi.
func TestGatherKeepsGrazedObjects(t *testing.T) {
	const w, h = 64, 64
	sinYaw, cosYaw := panoramaColumns(w)
	eye := geom.V3(50, EyeHeight, 50)
	var objs []Object
	var target []int // the grazed column of each object
	for i, x := range []int{0, 5, 17, 31, 32, 48, 63} {
		d := 6 + 3*float64(i)
		dir := geom.V3(sinYaw[x], 0, cosYaw[x])
		side := geom.V3(cosYaw[x], 0, -sinYaw[x]) // perpendicular in XZ
		for _, sign := range []float64{-1, 1} {
			// The surface passes a tenth of consider's slack outside the
			// ray: (r+gap)^2 - r^2 ~ 2*r*gap = 0.2e-9*d^2.
			r := 0.5 + 0.1*float64(i)
			c := eye.Add(dir.Scale(d)).Add(side.Scale(sign * (r + 1e-10*d*d/r)))
			objs = append(objs, Object{ID: len(objs), Kind: KindSphere, Center: geom.V3(c.X, 1, c.Z), Radius: r, Triangles: 1})
			target = append(target, x)
		}
	}
	for i, x := range []int{3, 20, 40, 60} {
		d := 10 + 4*float64(i)
		p := eye.Add(geom.V3(sinYaw[x], 0, cosYaw[x]).Scale(d))
		half := geom.V3(0.4, 1, 0.4)
		for _, sx := range []float64{-1, 1} {
			for _, sz := range []float64{-1, 1} {
				c := geom.V3(p.X+sx*(half.X+1e-11), 1, p.Z+sz*(half.Z+1e-11))
				objs = append(objs, Object{ID: len(objs), Kind: KindBox, Center: c, Half: half, Triangles: 1})
				target = append(target, x)
			}
		}
	}
	s := New("graze", geom.NewRect(100, 100), 0.5, objs, 0)
	checkFrame(t, s, eye, 0, math.Inf(1), w, h, 1, true)

	// Each object is a reference candidate of its column.
	tan, cos, sin := columnRows(h)
	q := s.NewQuery()
	for i, x := range target {
		col := Column{Eye: eye, SinYaw: sinYaw[x], CosYaw: cosYaw[x], Tan: tan, Cos: cos, Sin: sin, RowHi: h, TMax: math.Inf(1)}
		found := false
		for _, cd := range s.gatherRef(q, &col) {
			found = found || cd.obj.ID == i
		}
		if !found {
			t.Errorf("object %d is not a reference candidate of column %d: it does not graze it", i, x)
		}
	}
}

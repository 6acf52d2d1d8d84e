package world

import (
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

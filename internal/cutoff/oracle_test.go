package cutoff

import (
	"math/rand"
	"testing"

	"coterie/internal/device"
	"coterie/internal/games"
	"coterie/internal/geom"
	"coterie/internal/world"
)

// mapDigests pins an FNV-64a digest of every Region field of each game's
// DefaultParams map, taken from the uncapped search (every bisection step
// counting the whole disc). A capped search that moved one radius by one
// bit moves its game's digest.
var mapDigests = map[string]uint64{
	"racing":   0xc593cd44052fee1,  // 655 leaves
	"ds":       0x7e0d26530bbef35a, // 157 leaves
	"viking":   0xa5df958931c6ff63, // 697 leaves
	"cts":      0xa640864c9a503578, // 889 leaves
	"fps":      0x5aadb8062b9f9f10, // 334 leaves
	"soccer":   0x162a7076a27789c2, // 925 leaves
	"pool":     0x1f142baab435c187, // 40 leaves
	"bowling":  0x1058dca01d79d032, // 25 leaves
	"corridor": 0x31840f3292aa8b3f, // 49 leaves
}

// TestDefaultMapsUnchanged also holds each game's stored table to Compute's
// map (the loaded map must equal it) and to a fresh CalibrateThresholds run
// on it, bit for bit; -update (make thresholds) rewrites the tables from
// those runs instead.
func TestDefaultMapsUnchanged(t *testing.T) {
	prof := device.Pixel2()
	for _, spec := range games.Catalog() {
		g := games.Build(spec)
		m, err := Compute(g.Scene, prof.NearBERenderMs, DefaultParams())
		if err != nil {
			t.Fatal(err)
		}
		if got, want := mapDigest(m), mapDigests[spec.Name]; got != want {
			t.Errorf("%s: map digest %#x, want %#x", spec.Name, got, want)
		}
		checkTable(t, spec.Name, m)
	}
}

// uncappedMaxRadius is the search as it was before the count was capped:
// every bisection step counts every triangle in the disc and asks the
// render timer about the total. It is the reference maxRadius must equal.
func uncappedMaxRadius(s *world.Scene, q *world.Query, rt RenderTimer, budgetMs float64, loc geom.Vec2) float64 {
	fits := func(r float64) bool {
		return rt(s.TrianglesWithin(q, loc, r)) <= budgetMs
	}
	if !fits(radiusLo) {
		return radiusLo
	}
	if fits(radiusHi) {
		return radiusHi
	}
	lo, hi := radiusLo, radiusHi
	for i := 0; i < 24 && hi-lo > 0.05; i++ {
		mid := (lo + hi) / 2
		if fits(mid) {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo
}

// TestMaxRadiusMatchesUncapped compares the capped search with the uncapped
// one at 100 random locations of every game and of twoZoneScene, to the
// bit. Nearly all of them take their radius from the bisection, not from
// one of the search bounds.
func TestMaxRadiusMatchesUncapped(t *testing.T) {
	timer := rt()
	budget := DefaultParams().BudgetMs
	scenes := []*world.Scene{twoZoneScene()}
	for _, spec := range games.Catalog() {
		scenes = append(scenes, games.Build(spec).Scene)
	}
	for _, s := range scenes {
		b := builder{
			m:     &Map{Scene: s, Params: DefaultParams()},
			limit: nearBELimit(timer, budget, s.TotalTriangles()),
		}
		q := s.NewQuery()
		rng := rand.New(rand.NewSource(41))
		interior := 0
		for i := 0; i < 100; i++ {
			loc := geom.V2(
				s.Bounds.MinX+rng.Float64()*s.Bounds.Width(),
				s.Bounds.MinZ+rng.Float64()*s.Bounds.Depth(),
			)
			got := b.maxRadius(q, loc)
			if got > radiusLo && got < radiusHi {
				interior++
			}
			if want := uncappedMaxRadius(s, q, timer, budget, loc); got != want {
				t.Fatalf("%s at %v: maxRadius %v, uncapped %v", s.Name, loc, got, want)
			}
		}
		if interior == 0 {
			t.Errorf("%s: no location's radius came from the bisection", s.Name)
		}
	}
}

// TestNearBELimit checks the budget's triangle count at its edges: the
// largest count that fits, a timer that lands exactly on the budget (which
// fits), and budgets that nothing or everything fits.
func TestNearBELimit(t *testing.T) {
	timer := rt()
	const total = 50_000_000
	for _, budget := range []float64{4, 12.7, 16.7} {
		n := nearBELimit(timer, budget, total)
		if timer(n) > budget || timer(n+1) <= budget {
			t.Errorf("budget %v: limit %d renders in %v, limit+1 in %v", budget, n, timer(n), timer(n+1))
		}
	}
	perTri := func(n int) float64 { return float64(n) }
	cases := []struct {
		budget float64
		total  int
		want   int
	}{
		{10, 100, 10},   // rt(10) == budget: fits
		{9.5, 100, 9},   // between counts
		{-1, 100, -1},   // nothing fits, not even an empty disc
		{0, 100, 0},     // only an empty disc fits
		{500, 100, 100}, // the whole scene fits
	}
	for _, c := range cases {
		if got := nearBELimit(perTri, c.budget, c.total); got != c.want {
			t.Errorf("budget %v, total %d: limit %d, want %d", c.budget, c.total, got, c.want)
		}
	}
}

// TestComputeBudgetEdge runs Compute where the near BE's triangle count
// lands on the budget's edge: with one millisecond per triangle, no terrain
// and one object of budget-many triangles, every disc fits and every leaf
// gets the search's upper bound; with one triangle more, no disc reaching
// the object fits and every leaf's radius stops short of it.
func TestComputeBudgetEdge(t *testing.T) {
	perTri := func(n int) float64 { return float64(n) }
	p := testParams()
	p.BudgetMs = 1000
	for _, tris := range []int{1000, 1001} {
		obj := world.Object{Kind: world.KindSphere, Center: geom.V3(50, 1, 50), Radius: 1, Triangles: tris}
		s := world.New("edge", geom.NewRect(100, 100), 1, []world.Object{obj}, 0)
		m, err := Compute(s, perTri, p)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range m.Regions {
			fits := r.Radius == radiusHi
			if want := tris <= 1000; fits != want {
				t.Fatalf("%d-triangle object: region %d radius %v", tris, r.ID, r.Radius)
			}
		}
	}
}

package cutoff

import (
	"math"
	"math/rand"
	"runtime"
	"testing"

	"coterie/internal/device"
	"coterie/internal/games"
	"coterie/internal/geom"
	"coterie/internal/render"
	"coterie/internal/world"
)

// twoZoneScene has a dense west half and a sparse east half, so the
// partitioner must split at least once and assign a smaller radius to the
// dense side.
func twoZoneScene() *world.Scene {
	rng := rand.New(rand.NewSource(5))
	var objs []world.Object
	add := func(x, z float64, tris int) {
		objs = append(objs, world.Object{
			ID: len(objs), Kind: world.KindSphere,
			Center: geom.V3(x, 1, z), Radius: 0.8, Triangles: tris, Shade: 0.5,
		})
	}
	// Dense west half: many small assets, so a cutoff disc holds ~100
	// objects (like a real game world; keeps sampling noise low).
	for i := 0; i < 4000; i++ {
		add(rng.Float64()*64, rng.Float64()*64, 6_000)
	}
	for i := 0; i < 400; i++ { // sparse east half
		add(64+rng.Float64()*64, rng.Float64()*64, 800)
	}
	return world.New("twozone", geom.Rect{MaxX: 128, MaxZ: 64}, 0.25, objs, 5)
}

func testParams() Params {
	p := DefaultParams()
	p.K = 6
	p.MinRegion = 4
	return p
}

func rt() RenderTimer {
	prof := device.Pixel2()
	return prof.NearBERenderMs
}

func TestComputeSplitsOnDensityContrast(t *testing.T) {
	m, err := Compute(twoZoneScene(), rt(), testParams())
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	if m.Stats.LeafCount < 4 {
		t.Fatalf("expected a split, got %d leaves", m.Stats.LeafCount)
	}
	dense := m.RadiusAt(geom.V2(20, 32))
	sparse := m.RadiusAt(geom.V2(110, 32))
	if dense >= sparse {
		t.Fatalf("dense radius %.1f should be smaller than sparse %.1f", dense, sparse)
	}
}

func TestUniformWorldSingleLeaf(t *testing.T) {
	// A world with uniform density should not be split at all.
	rng := rand.New(rand.NewSource(6))
	var objs []world.Object
	for i := 0; i < 500; i++ {
		objs = append(objs, world.Object{
			ID: i, Kind: world.KindSphere,
			Center: geom.V3(rng.Float64()*100, 1, rng.Float64()*100),
			Radius: 0.5, Triangles: 20_000, Shade: 0.5,
		})
	}
	s := world.New("uniform", geom.NewRect(100, 100), 0.5, objs, 5)
	p := testParams()
	p.Tolerance = 1.8 // uniform scatter still jitters locally
	m, err := Compute(s, rt(), p)
	if err != nil {
		t.Fatal(err)
	}
	if m.Stats.LeafCount > 16 {
		t.Fatalf("uniform world split into %d leaves", m.Stats.LeafCount)
	}
}

func TestRadiusSatisfiesConstraint1(t *testing.T) {
	// The defining guarantee: at (almost) any location, rendering the near
	// BE within the leaf's radius fits the render-time budget. The paper
	// reports a small violation rate (<0.25% at K=10, Fig 6) on real game
	// worlds, whose density fields are smooth; we verify on the FPS world
	// with a slightly looser bound since our sampling is coarser.
	g := games.Build(mustSpec(t, "fps"))
	s := g.Scene
	p := DefaultParams()
	p.K = 10
	m, err := Compute(s, rt(), p)
	if err != nil {
		t.Fatal(err)
	}
	// The offline search budget (12.7ms on the all-around triangle count)
	// embeds two conservatisms the runtime enjoys: the paper's 4ms FI
	// bound versus the actual FI load, and frustum culling (the phone
	// renders the field of view, not the full surround). The measured
	// constraint is the on-device one: RT_FI + per-frame near-BE render
	// time < 16.7ms.
	prof := device.Pixel2()
	typicalFI := prof.RenderMs(2 * 25_000)
	q := s.NewQuery()
	rng := rand.New(rand.NewSource(9))
	violations, total := 0, 600
	for i := 0; i < total; i++ {
		loc := geom.V2(rng.Float64()*s.Bounds.Width(), rng.Float64()*s.Bounds.Depth())
		r := m.RadiusAt(loc)
		if prof.NearBEFrameMs(s.TrianglesWithin(q, loc, r))+typicalFI > prof.VsyncMs {
			violations++
		}
	}
	if frac := float64(violations) / float64(total); frac > 0.005 {
		t.Fatalf("constraint violated at %.1f%% of locations", frac*100)
	}
}

func TestViolationRateDropsWithK(t *testing.T) {
	// Fig 6's shape: larger K -> fewer Constraint-1 violations.
	s := twoZoneScene()
	timer := rt()
	q := s.NewQuery()
	rng := rand.New(rand.NewSource(10))
	locs := make([]geom.Vec2, 400)
	for i := range locs {
		locs[i] = geom.V2(rng.Float64()*128, rng.Float64()*64)
	}
	rate := func(k int) float64 {
		p := testParams()
		p.K = k
		p.Seed = 33
		m, err := Compute(s, timer, p)
		if err != nil {
			t.Fatal(err)
		}
		v := 0
		for _, loc := range locs {
			if timer(s.TrianglesWithin(q, loc, m.RadiusAt(loc))) > p.BudgetMs {
				v++
			}
		}
		return float64(v) / float64(len(locs))
	}
	r1, r10 := rate(1), rate(10)
	if r10 > r1+1e-9 && r10 > 0.01 {
		t.Fatalf("violation rate did not improve with K: K=1 %.3f, K=10 %.3f", r1, r10)
	}
}

func TestLeafAtCoversWholeWorld(t *testing.T) {
	m, err := Compute(twoZoneScene(), rt(), testParams())
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 2000; i++ {
		p := geom.V2(rng.Float64()*128, rng.Float64()*64)
		if m.LeafAt(p) == nil {
			t.Fatalf("no leaf at %v", p)
		}
	}
	// Boundary points included; outside points nil.
	if m.LeafAt(geom.V2(128, 64)) == nil {
		t.Fatal("max corner should resolve to a leaf")
	}
	if m.LeafAt(geom.V2(-1, 0)) != nil || m.RadiusAt(geom.V2(200, 0)) != 0 {
		t.Fatal("outside positions should not resolve")
	}
}

// TestLeafAtReturnsContainingRegion checks that a lookup answers with the
// leaf whose bounds hold the queried point, not merely some leaf.
func TestLeafAtReturnsContainingRegion(t *testing.T) {
	m, err := Compute(twoZoneScene(), rt(), testParams())
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 2000; i++ {
		p := geom.V2(rng.Float64()*128, rng.Float64()*64)
		leaf := m.LeafAt(p)
		if leaf == nil {
			t.Fatalf("no leaf at %v", p)
		}
		if !leaf.Bounds.ContainsClosed(p) {
			t.Fatalf("lookup at %v returned leaf %v", p, leaf.Bounds)
		}
	}
}

func TestDensityRadiusCorrelation(t *testing.T) {
	// Fig 8: the higher the object density of a leaf region, the smaller
	// its generated cutoff radius. Check rank correlation over leaves.
	g := games.Build(mustSpec(t, "fps"))
	p := DefaultParams()
	p.K = 5
	p.MinRegion = 2
	m, err := Compute(g.Scene, rt(), p)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Regions) < 8 {
		t.Skipf("only %d leaves; not enough for correlation", len(m.Regions))
	}
	// Pearson correlation between density and radius must be negative.
	var mx, my float64
	for _, r := range m.Regions {
		mx += r.TriDensity
		my += r.Radius
	}
	n := float64(len(m.Regions))
	mx /= n
	my /= n
	var sxy, sxx, syy float64
	for _, r := range m.Regions {
		dx, dy := r.TriDensity-mx, r.Radius-my
		sxy += dx * dy
		sxx += dx * dx
		syy += dy * dy
	}
	if sxx == 0 || syy == 0 {
		t.Skip("degenerate variance")
	}
	corr := sxy / math.Sqrt(sxx*syy)
	if corr >= -0.3 {
		t.Fatalf("density/radius correlation = %.2f, want clearly negative", corr)
	}
}

func TestComputeRejectsBadParams(t *testing.T) {
	s := twoZoneScene()
	p := testParams()
	p.K = 0
	if _, err := Compute(s, rt(), p); err == nil {
		t.Fatal("expected error for K=0")
	}
	p = testParams()
	p.BudgetMs = 0
	if _, err := Compute(s, rt(), p); err == nil {
		t.Fatal("expected error for BudgetMs=0")
	}
}

func TestComputeDeterministic(t *testing.T) {
	a, err := Compute(twoZoneScene(), rt(), testParams())
	if err != nil {
		t.Fatal(err)
	}
	b, err := Compute(twoZoneScene(), rt(), testParams())
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Regions) != len(b.Regions) {
		t.Fatal("non-deterministic partition")
	}
	for i := range a.Regions {
		if a.Regions[i].Radius != b.Regions[i].Radius {
			t.Fatalf("region %d radius differs", i)
		}
	}
}

// setProcs sets GOMAXPROCS — the fan-out width — to n for the rest of the
// test. Tests that call it must not be parallel: a non-parallel test never
// overlaps a parallel one.
func setProcs(t *testing.T, n int) {
	t.Helper()
	old := runtime.GOMAXPROCS(n)
	t.Cleanup(func() { runtime.GOMAXPROCS(old) })
}

func TestComputeParallelMatchesSequential(t *testing.T) {
	// The partition must be byte-identical at any worker count: the rng
	// prepass and index-addressed sample results make worker scheduling
	// invisible.
	run := func(workers int) *Map {
		setProcs(t, workers)
		m, err := Compute(twoZoneScene(), rt(), testParams())
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	base := run(1)
	for _, w := range []int{2, 8} {
		m := run(w)
		if len(m.Regions) != len(base.Regions) {
			t.Fatalf("%d workers: %d regions, want %d", w, len(m.Regions), len(base.Regions))
		}
		for i := range m.Regions {
			a, b := base.Regions[i], m.Regions[i]
			if a.Radius != b.Radius || a.TriDensity != b.TriDensity || a.Bounds != b.Bounds || a.Depth != b.Depth {
				t.Fatalf("%d workers: region %d differs: %+v vs %+v", w, i, a, b)
			}
		}
		if m.Stats.CutoffCalcs != base.Stats.CutoffCalcs {
			t.Fatalf("%d workers: calcs %d vs %d", w, m.Stats.CutoffCalcs, base.Stats.CutoffCalcs)
		}
	}
}

func TestDeriveThresholdsParallelMatchesSequential(t *testing.T) {
	g := games.Build(mustSpec(t, "pool"))
	p := DefaultParams()
	p.K = 4
	p.MinRegion = 2.5
	run := func(workers int) *Map {
		setProcs(t, workers)
		m, err := Compute(g.Scene, rt(), p)
		if err != nil {
			t.Fatal(err)
		}
		r := render.New(g.Scene, render.Config{W: 64, H: 32})
		cfg := DefaultThresholdConfig()
		cfg.Samples = 1
		if err := DeriveThresholds(m, r, cfg); err != nil {
			t.Fatal(err)
		}
		return m
	}
	base := run(1)
	m8 := run(8)
	for i := range base.Regions {
		if base.Regions[i].DistThresh != m8.Regions[i].DistThresh {
			t.Fatalf("region %d: DistThresh %v (1 worker) vs %v (8 workers)",
				i, base.Regions[i].DistThresh, m8.Regions[i].DistThresh)
		}
	}
}

func TestDeriveThresholds(t *testing.T) {
	g := games.Build(mustSpec(t, "pool"))
	p := DefaultParams()
	p.K = 4
	p.MinRegion = 2.5
	m, err := Compute(g.Scene, rt(), p)
	if err != nil {
		t.Fatal(err)
	}
	r := render.New(g.Scene, render.Config{W: 128, H: 64})
	cfg := DefaultThresholdConfig()
	cfg.Samples = 1
	if err := DeriveThresholds(m, r, cfg); err != nil {
		t.Fatal(err)
	}
	for _, reg := range m.Regions {
		if reg.DistThresh < minThresh-1e-12 || reg.DistThresh > maxThresh {
			t.Fatalf("region %d threshold %v outside [%v, %v]", reg.ID, reg.DistThresh, minThresh, maxThresh)
		}
	}
}

func TestCalibrateThresholdsScalesWithRadius(t *testing.T) {
	m, err := Compute(twoZoneScene(), rt(), testParams())
	if err != nil {
		t.Fatal(err)
	}
	r := render.New(m.Scene, render.Config{W: 128, H: 64})
	cfg := DefaultThresholdConfig()
	cfg.Samples = 1
	if err := CalibrateThresholds(m, r, 2, cfg); err != nil {
		t.Fatal(err)
	}
	for _, reg := range m.Regions {
		if reg.DistThresh <= 0 {
			t.Fatalf("region %d has no threshold", reg.ID)
		}
	}
}

func mustSpec(t *testing.T, name string) games.Spec {
	t.Helper()
	s, err := games.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

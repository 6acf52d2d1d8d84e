package core

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"

	"coterie/internal/cache"
	"coterie/internal/cutoff"
	"coterie/internal/games"
	"coterie/internal/geom"
	"coterie/internal/render"
)

// The FPS arena is the smallest outdoor world; sessions on it exercise the
// full pipeline in a few hundred milliseconds.
var (
	envOnce sync.Once
	envFPS  *Env
	envErr  error
)

func testEnv(t *testing.T) *Env {
	t.Helper()
	envOnce.Do(func() {
		spec, err := games.ByName("fps")
		if err != nil {
			envErr = err
			return
		}
		envFPS, envErr = PrepareEnv(spec, EnvOptions{SizeSamples: 6})
	})
	if envErr != nil {
		t.Fatal(envErr)
	}
	return envFPS
}

func TestPrepareEnv(t *testing.T) {
	env := testEnv(t)
	if env.Map.Stats.LeafCount < 4 {
		t.Fatalf("only %d leaf regions", env.Map.Stats.LeafCount)
	}
	for _, r := range env.Map.Regions {
		if r.DistThresh <= 0 {
			t.Fatalf("region %d missing distance threshold", r.ID)
		}
	}
	s, err := env.Sizes()
	if err != nil {
		t.Fatal(err)
	}
	if s.WholeBE <= 0 || s.FarBE <= 0 || s.Thin <= 0 {
		t.Fatalf("sizer incomplete: %+v", s)
	}
	if s.FarBE >= s.WholeBE {
		t.Fatalf("far-BE frames (%d) must be smaller than whole-BE (%d)", s.FarBE, s.WholeBE)
	}
}

// TestPrepareEnvThresholdSource: a catalog game's map and thresholds are
// its stored table at any render size, bit for bit the default
// environment's; a spec with no table (a custom scene) computes the map
// at DefaultParams and calibrates at 256x128 whatever RenderCfg says.
func TestPrepareEnvThresholdSource(t *testing.T) {
	viking, err := games.ByName("viking")
	if err != nil {
		t.Fatal(err)
	}
	def, err := PrepareEnv(viking, EnvOptions{SizeSamples: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, cfg := range []render.Config{{}, {W: 64, H: 32}, {W: 512, H: 256}} {
		env, err := PrepareEnv(viking, EnvOptions{RenderCfg: cfg, SizeSamples: 1})
		if err != nil {
			t.Fatal(err)
		}
		if !env.mapStored || !env.threshStored {
			t.Errorf("viking at %+v: map stored %v, thresholds stored %v; want both", cfg, env.mapStored, env.threshStored)
		}
		if !env.Map.Equal(def.Map) {
			t.Errorf("viking at %+v: map differs from the default environment's", cfg)
		}
		sameThresholds(t, fmt.Sprintf("viking at %+v", cfg), env.Map, def.Map)
		if want := render.New(env.Game.Scene, cfg).Cfg; env.Renderer.Cfg != want {
			t.Errorf("viking at %+v: renderer at %+v, want %+v", cfg, env.Renderer.Cfg, want)
		}
	}

	custom, err := games.ByName("ds")
	if err != nil {
		t.Fatal(err)
	}
	// Another world, which no stored table holds. At Seed+1 the sampled
	// leaves calibrate alike at 64x32 and 256x128, so the check below
	// could not tell the sizes apart.
	custom.Seed += 2
	small := render.Config{W: 64, H: 32}
	env, err := PrepareEnv(custom, EnvOptions{RenderCfg: small, SizeSamples: 1})
	if err != nil {
		t.Fatal(err)
	}
	if env.mapStored || env.threshStored {
		t.Errorf("custom ds: map stored %v, thresholds stored %v; want both computed", env.mapStored, env.threshStored)
	}
	want := cutoff.DefaultParams()
	want.MinRegion = env.Map.Params.MinRegion // 0 in the defaults: Compute derives it
	if env.Map.Params != want {
		t.Errorf("custom ds: map computed at %+v, want the defaults %+v", env.Map.Params, want)
	}
	// The thresholds CalibrateDefault derives on the same map, and those a
	// 64x32 calibration would.
	bare := func() *cutoff.Map {
		m := *env.Map
		m.Regions = append([]cutoff.Region(nil), m.Regions...)
		for i := range m.Regions {
			m.Regions[i].DistThresh = 0
		}
		return &m
	}
	atDefault, atSmall := bare(), bare()
	if err := cutoff.CalibrateDefault(atDefault); err != nil {
		t.Fatal(err)
	}
	sameThresholds(t, "custom ds", env.Map, atDefault)
	if err := cutoff.CalibrateThresholds(atSmall, render.New(env.Game.Scene, small), cutoff.DefaultSampleLeaves, cutoff.DefaultThresholdConfig()); err != nil {
		t.Fatal(err)
	}
	if atSmall.Equal(atDefault) {
		t.Fatal("custom ds: the 64x32 calibration equals the 256x128 one; the test cannot tell them apart")
	}
}

// sameThresholds fails unless got's leaf thresholds are want's bit for bit.
func sameThresholds(t *testing.T, name string, got, want *cutoff.Map) {
	t.Helper()
	for i, r := range want.Regions {
		if g := got.Regions[i].DistThresh; math.Float64bits(g) != math.Float64bits(r.DistThresh) {
			t.Fatalf("%s: leaf %d threshold %v, want %v", name, i, g, r.DistThresh)
		}
	}
}

// TestMetaIndependentOfRenderSize: two environments of one game at
// different render sizes give every grid point the same §5.3 lookup keys
// (leaf, near-set signature, threshold bits), so a server and a client of
// the game agree on them whatever size the server serves.
func TestMetaIndependentOfRenderSize(t *testing.T) {
	spec, err := games.ByName("viking")
	if err != nil {
		t.Fatal(err)
	}
	a, err := PrepareEnv(spec, EnvOptions{SizeSamples: 1})
	if err != nil {
		t.Fatal(err)
	}
	b, err := PrepareEnv(spec, EnvOptions{RenderCfg: render.Config{W: 64, H: 32}, SizeSamples: 1})
	if err != nil {
		t.Fatal(err)
	}
	grid := a.Game.Scene.Grid
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 500; i++ {
		pt := geom.GridPoint{I: rng.Intn(grid.Cols()), J: rng.Intn(grid.Rows())}
		la, sa, ta := a.Meta(pt)
		lb, sb, tb := b.Meta(pt)
		if la != lb || sa != sb || math.Float64bits(ta) != math.Float64bits(tb) {
			t.Fatalf("point %v: 256x128 leaf %d sig %#x thresh %v, 64x32 leaf %d sig %#x thresh %v",
				pt, la, sa, ta, lb, sb, tb)
		}
	}
}

// TestSizesBuiltOnce: concurrent first callers of Env.Sizes all get the one
// model, equal to NewFrameSizer's (run under -race by make race).
func TestSizesBuiltOnce(t *testing.T) {
	spec, err := games.ByName("fps")
	if err != nil {
		t.Fatal(err)
	}
	env, err := PrepareEnv(spec, EnvOptions{SizeSamples: 2})
	if err != nil {
		t.Fatal(err)
	}
	want, err := NewFrameSizer(env.Game, env.Map, env.CRF, 2)
	if err != nil {
		t.Fatal(err)
	}
	got := make([]*FrameSizer, 8)
	errs := make([]error, len(got))
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i], errs[i] = env.Sizes()
		}()
	}
	wg.Wait()
	for i, s := range got {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		if s != got[0] || *s != *want {
			t.Fatalf("caller %d: %p %+v, caller 0 %p, NewFrameSizer %+v", i, s, *s, got[0], *want)
		}
	}
}

func TestSystemKindStrings(t *testing.T) {
	for _, k := range []SystemKind{Mobile, ThinClient, MultiFurion, MultiFurionCache, CoterieNoCache, Coterie} {
		if k.String() == "" {
			t.Fatalf("kind %d has no name", int(k))
		}
	}
	if SystemKind(99).String() == "" {
		t.Fatal("unknown kind should still print")
	}
}

func TestSystemKindPredicates(t *testing.T) {
	if Mobile.UsesBEPrefetch() || ThinClient.UsesBEPrefetch() {
		t.Fatal("Mobile/Thin-client do not prefetch BE")
	}
	if !Coterie.UsesBEPrefetch() || !MultiFurion.UsesBEPrefetch() {
		t.Fatal("Coterie and Multi-Furion prefetch BE")
	}
	if !Coterie.SplitsNearFar() || !CoterieNoCache.SplitsNearFar() {
		t.Fatal("Coterie variants split near/far")
	}
	if MultiFurion.SplitsNearFar() {
		t.Fatal("Multi-Furion does not split near/far")
	}
	if !Coterie.SimilarityCache() || CoterieNoCache.SimilarityCache() {
		t.Fatal("similarity cache is Coterie-only")
	}
}

// TestMetaConcurrentMatchesSerial: Meta is the §5.3 lookup key of a point
// whoever asks. Eight goroutines walk the same points in different orders
// through one fresh memo, and every answer, first or memoized, equals a
// near-set query of its own at the leaf's radius; off the map it is
// -1, 0, 0 and is not memoized.
func TestMetaConcurrentMatchesSerial(t *testing.T) {
	prepared := testEnv(t)
	env := &Env{Game: prepared.Game, Map: prepared.Map} // an empty memo
	scene := env.Game.Scene
	grid := scene.Grid
	spawn := grid.Snap(env.Game.Spawn)

	// A 16×16 block around the spawn point at a 7-step stride (several
	// leaves), plus one point off the map.
	var pts []geom.GridPoint
	want := map[geom.GridPoint]pointMeta{}
	for di := -8; di < 8; di++ {
		for dj := -8; dj < 8; dj++ {
			pt := geom.GridPoint{I: spawn.I + 7*di, J: spawn.J + 7*dj}
			pos := grid.Pos(pt)
			leaf := env.Map.LeafAt(pos)
			if leaf == nil {
				t.Fatalf("%v is off the map", pt)
			}
			pts = append(pts, pt)
			want[pt] = pointMeta{leaf.ID, scene.NearSetSignature(scene.NewQuery(), pos, leaf.Radius), leaf.DistThresh}
		}
	}
	off := geom.GridPoint{I: -10, J: -10}
	pts = append(pts, off)
	want[off] = pointMeta{-1, 0, 0}
	leaves := map[int]bool{}
	for _, k := range want {
		leaves[k.leaf] = true
	}
	if len(pts) < 200 || len(leaves) < 3 {
		t.Fatalf("%d points in %d leaves: too few to test", len(pts), len(leaves))
	}

	const goroutines = 8
	errs := make(chan string, goroutines*len(pts))
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			// Goroutine g starts at a different point; odd ones walk backwards.
			for n := range pts {
				i := (n + g*len(pts)/goroutines) % len(pts)
				if g%2 == 1 {
					i = len(pts) - 1 - i
				}
				pt := pts[i]
				if l, s, th := env.Meta(pt); (pointMeta{l, s, th}) != want[pt] {
					errs <- fmt.Sprintf("goroutine %d: Meta(%v) = %d, %x, %v, want %+v", g, pt, l, s, th, want[pt])
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}

	for _, pt := range pts {
		if l, s, th := env.Meta(pt); (pointMeta{l, s, th}) != want[pt] {
			t.Errorf("memoized Meta(%v) = %d, %x, %v, want %+v", pt, l, s, th, want[pt])
		}
	}
	if n := env.metaCount.Load(); n != int64(len(pts)-1) {
		t.Errorf("memo holds %d points, want the %d on the map", n, len(pts)-1)
	}
	if l, _, th := env.Meta(spawn); l < 0 || th <= 0 {
		t.Errorf("implausible meta at spawn: leaf %d thresh %v", l, th)
	}
}

func TestFrameSizerJitterDeterministic(t *testing.T) {
	sizer, err := testEnv(t).Sizes()
	if err != nil {
		t.Fatal(err)
	}
	pt := geom.GridPoint{I: 100, J: 200}
	a := sizer.SizeFor(Coterie, pt)
	b := sizer.SizeFor(Coterie, pt)
	if a != b {
		t.Fatal("size jitter not deterministic")
	}
	// Jitter stays within +-8%.
	base := sizer.FarBE
	if a < int(float64(base)*0.9) || a > int(float64(base)*1.1) {
		t.Fatalf("size %d too far from base %d", a, base)
	}
	if sizer.SizeFor(MultiFurion, pt) <= a {
		t.Fatal("whole-BE transfer should exceed far-BE")
	}
}

func TestRunSessionValidation(t *testing.T) {
	env := testEnv(t)
	if _, err := RunSession(env, SessionConfig{System: Coterie, Players: 0, Seconds: 1}); err == nil {
		t.Fatal("expected error for zero players")
	}
	if _, err := RunSession(env, SessionConfig{System: Coterie, Players: 1, Seconds: 0}); err == nil {
		t.Fatal("expected error for zero duration")
	}
}

func TestSessionBasics(t *testing.T) {
	env := testEnv(t)
	res, err := RunSession(env, SessionConfig{System: Coterie, Players: 2, Seconds: 5, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Per) != 2 {
		t.Fatalf("%d player metrics", len(res.Per))
	}
	m := res.Mean
	if m.Frames < 100 {
		t.Fatalf("only %d frames in 5s", m.Frames)
	}
	if m.FPS < 30 || m.FPS > 61 {
		t.Fatalf("Coterie FPS = %.1f", m.FPS)
	}
	if m.CacheHitRatio <= 0.3 {
		t.Fatalf("hit ratio = %.2f", m.CacheHitRatio)
	}
	if m.CPUPct <= 0 || m.GPUPct <= 0 || m.PowerW <= 0 {
		t.Fatalf("resource metrics missing: %+v", m)
	}
	if res.FIKbps <= 0 {
		t.Fatal("no FI traffic")
	}
	if len(res.Series) == 0 {
		t.Fatal("no resource series")
	}
}

func TestSessionDeterministic(t *testing.T) {
	env := testEnv(t)
	cfg := SessionConfig{System: Coterie, Players: 2, Seconds: 3, Seed: 7}
	a, err := RunSession(env, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunSession(env, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.Mean.Frames != b.Mean.Frames || a.Mean.BEMbps != b.Mean.BEMbps {
		t.Fatalf("sessions differ: %+v vs %+v", a.Mean, b.Mean)
	}
}

func TestSystemOrdering(t *testing.T) {
	// The paper's headline comparison at 2 players: Coterie delivers the
	// highest FPS, Multi-Furion is second, Thin-client trails; Coterie
	// uses a fraction of Multi-Furion's per-player bandwidth.
	env := testEnv(t)
	run := func(sys SystemKind) *Result {
		res, err := RunSession(env, SessionConfig{System: sys, Players: 2, Seconds: 6, Seed: 3})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	thin := run(ThinClient)
	furion := run(MultiFurion)
	coterie := run(Coterie)
	if !(coterie.Mean.FPS >= furion.Mean.FPS && furion.Mean.FPS > thin.Mean.FPS) {
		t.Fatalf("FPS ordering broken: C=%.1f M=%.1f T=%.1f",
			coterie.Mean.FPS, furion.Mean.FPS, thin.Mean.FPS)
	}
	if coterie.Mean.FPS < 50 {
		t.Fatalf("Coterie 2P FPS = %.1f, want ~60", coterie.Mean.FPS)
	}
	if coterie.Mean.BEMbps*2 >= furion.Mean.BEMbps {
		t.Fatalf("Coterie bandwidth %.1f not clearly below Multi-Furion %.1f",
			coterie.Mean.BEMbps, furion.Mean.BEMbps)
	}
	if coterie.Mean.ResponsivenessMs >= furion.Mean.ResponsivenessMs {
		t.Fatalf("Coterie responsiveness %.1f should beat Multi-Furion %.1f",
			coterie.Mean.ResponsivenessMs, furion.Mean.ResponsivenessMs)
	}
}

func TestCoterieScalesToFourPlayers(t *testing.T) {
	// Fig 11's core claim: Coterie holds ~60 FPS at 4 players while
	// Multi-Furion degrades.
	env := testEnv(t)
	c4, err := RunSession(env, SessionConfig{System: Coterie, Players: 4, Seconds: 6, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	m4, err := RunSession(env, SessionConfig{System: MultiFurion, Players: 4, Seconds: 6, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if c4.Mean.FPS < 50 {
		t.Fatalf("Coterie 4P FPS = %.1f", c4.Mean.FPS)
	}
	if m4.Mean.FPS > c4.Mean.FPS-10 {
		t.Fatalf("Multi-Furion 4P (%.1f) should clearly trail Coterie (%.1f)",
			m4.Mean.FPS, c4.Mean.FPS)
	}
}

func TestMobileIndependentOfPlayers(t *testing.T) {
	env := testEnv(t)
	m1, err := RunSession(env, SessionConfig{System: Mobile, Players: 1, Seconds: 3, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	m4, err := RunSession(env, SessionConfig{System: Mobile, Players: 4, Seconds: 3, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if diff := m1.Mean.FPS - m4.Mean.FPS; diff > 1 || diff < -1 {
		t.Fatalf("Mobile FPS changed with players: %.1f vs %.1f", m1.Mean.FPS, m4.Mean.FPS)
	}
}

func TestCacheConfigFor(t *testing.T) {
	cfg := cacheConfigFor(Coterie, cache.FLF, 1<<20)
	if !cfg.ServeSimilar || !cfg.IntraPlayer || cfg.InterPlayer {
		t.Fatalf("Coterie cache config: %+v", cfg)
	}
	if cfg.Policy != cache.FLF || cfg.CapacityBytes != 1<<20 {
		t.Fatalf("policy/capacity not applied: %+v", cfg)
	}
	mf := cacheConfigFor(MultiFurion, cache.LRU, 1<<20)
	if mf.ServeSimilar {
		t.Fatal("Multi-Furion must not serve similar frames")
	}
}

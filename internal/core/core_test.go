package core

import (
	"fmt"
	"math"
	"strings"
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
	s := env.Sizer
	if s.WholeBE <= 0 || s.FarBE <= 0 || s.Thin <= 0 {
		t.Fatalf("sizer incomplete: %+v", s)
	}
	if s.FarBE >= s.WholeBE {
		t.Fatalf("far-BE frames (%d) must be smaller than whole-BE (%d)", s.FarBE, s.WholeBE)
	}
}

// TestPrepareEnvCutoffParams: only the zero CutoffParams means the
// defaults; a half-set value reaches cutoff.Compute and its error.
func TestPrepareEnvCutoffParams(t *testing.T) {
	got := testEnv(t).Map.Params
	want := cutoff.DefaultParams()
	want.MinRegion = got.MinRegion // 0 in the defaults: Compute derives it
	if got != want {
		t.Errorf("zero CutoffParams prepared with %+v, want the defaults %+v", got, want)
	}
	spec, err := games.ByName("fps")
	if err != nil {
		t.Fatal(err)
	}
	_, err = PrepareEnv(spec, EnvOptions{CutoffParams: cutoff.Params{K: 0, BudgetMs: 12.7}})
	if err == nil || !strings.Contains(err.Error(), "K must be >= 1") {
		t.Fatalf("CutoffParams{K: 0, BudgetMs: 12.7}: err %v, want Compute's K error", err)
	}
}

// TestPrepareEnvThresholdSource: at the defaults a catalog game's
// thresholds are its stored table; at other options (the benchmark's small
// mode) PrepareEnv calibrates, to the bits of a direct CalibrateThresholds
// call, and the table is not used.
func TestPrepareEnvThresholdSource(t *testing.T) {
	def := testEnv(t)
	small := render.Config{W: 64, H: 32}
	env, err := PrepareEnv(def.Game.Spec, EnvOptions{RenderCfg: small, ThresholdLeaves: 1, SizeSamples: 1})
	if err != nil {
		t.Fatal(err)
	}
	// Compute's map, before any thresholds: both environments' maps without
	// them.
	bare := func() *cutoff.Map {
		m := *def.Map
		m.Regions = append([]cutoff.Region(nil), m.Regions...)
		for i := range m.Regions {
			m.Regions[i].DistThresh = 0
		}
		return &m
	}
	table, direct := bare(), bare()
	if ok, err := cutoff.LoadThresholds("fps", table, render.DefaultConfig(), cutoff.DefaultSampleLeaves, cutoff.DefaultThresholdConfig()); !ok || err != nil {
		t.Fatalf("fps's stored table: accepted %v, err %v", ok, err)
	}
	if err := cutoff.CalibrateThresholds(direct, render.New(def.Game.Scene, small), 1, cutoff.DefaultThresholdConfig()); err != nil {
		t.Fatal(err)
	}
	same := true
	for i, r := range table.Regions {
		if got := def.Map.Regions[i].DistThresh; math.Float64bits(got) != math.Float64bits(r.DistThresh) {
			t.Fatalf("defaults: leaf %d threshold %v, stored %v", i, got, r.DistThresh)
		}
		if got, want := env.Map.Regions[i].DistThresh, direct.Regions[i].DistThresh; math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("64x32, 1 leaf: leaf %d threshold %v, calibration %v", i, got, want)
		}
		same = same && direct.Regions[i].DistThresh == r.DistThresh
	}
	if same {
		t.Fatal("the 64x32 calibration equals the stored table: the test cannot tell them apart")
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
	env := testEnv(t)
	pt := geom.GridPoint{I: 100, J: 200}
	a := env.Sizer.SizeFor(Coterie, pt)
	b := env.Sizer.SizeFor(Coterie, pt)
	if a != b {
		t.Fatal("size jitter not deterministic")
	}
	// Jitter stays within +-8%.
	base := env.Sizer.FarBE
	if a < int(float64(base)*0.9) || a > int(float64(base)*1.1) {
		t.Fatalf("size %d too far from base %d", a, base)
	}
	if env.Sizer.SizeFor(MultiFurion, pt) <= a {
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

package core

import (
	"strings"
	"sync"
	"testing"

	"coterie/internal/cache"
	"coterie/internal/cutoff"
	"coterie/internal/games"
	"coterie/internal/geom"
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

func TestMetaForConsistency(t *testing.T) {
	env := testEnv(t)
	meta := env.MetaFor()
	pt := env.Game.Scene.Grid.Snap(env.Game.Spawn)
	l1, s1, t1 := meta(pt)
	l2, s2, t2 := meta(pt) // memoised second call
	if l1 != l2 || s1 != s2 || t1 != t2 {
		t.Fatal("meta not deterministic")
	}
	if l1 < 0 || t1 <= 0 {
		t.Fatalf("implausible meta: leaf %d thresh %v", l1, t1)
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

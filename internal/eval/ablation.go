package eval

import (
	"io"
	"math"

	"coterie/internal/cache"
	"coterie/internal/core"
	"coterie/internal/geom"
	"coterie/internal/par"
	"coterie/internal/prefetch"
	"coterie/internal/trace"
)

// AblationReplacement compares the LRU and FLF replacement policies (§5.3)
// under a constrained cache. Paper: "both LRU and FLF work effectively as
// spatial locality and temporal locality coincide well in each player's
// movement".
type AblationReplacement struct {
	Game    string
	CacheMB int64
	LRUHit  float64
	FLFHit  float64
}

// ReplacementAblation runs Coterie sessions with a small cache under both
// policies.
func (l *Lab) ReplacementAblation(game string, cacheMB int64) (*AblationReplacement, error) {
	env, err := l.Env(game)
	if err != nil {
		return nil, err
	}
	// The two policy runs are independent sessions; run them concurrently.
	policies := []cache.Policy{cache.LRU, cache.FLF}
	hits := make([]float64, len(policies))
	err = par.ForErr(len(policies), func(i int) error {
		res, err := core.RunSession(env, core.SessionConfig{
			System:      core.Coterie,
			Players:     2,
			Seconds:     l.Opts.sessionSeconds(),
			Seed:        l.Opts.Seed,
			CachePolicy: policies[i],
			CacheBytes:  cacheMB << 20,
		})
		if err != nil {
			return err
		}
		hits[i] = res.Mean.CacheHitRatio
		return nil
	})
	if err != nil {
		return nil, err
	}
	return &AblationReplacement{Game: game, CacheMB: cacheMB, LRUHit: hits[0], FLFHit: hits[1]}, nil
}

// PrintReplacementAblation renders the comparison.
func PrintReplacementAblation(w io.Writer, r *AblationReplacement) {
	fprintf(w, "Ablation: cache replacement policy (%s, %d MB cache)\n", r.Game, r.CacheMB)
	fprintf(w, "LRU hit ratio %.1f%%, FLF hit ratio %.1f%%\n", r.LRUHit*100, r.FLFHit*100)
	fprintf(w, "paper: both work effectively (temporal and spatial locality coincide)\n")
}

// AblationCutoff compares the adaptive quadtree cutoff against a single
// global radius (§4.3's motivation: a global radius must be the worst-case
// one, wasting far-BE similarity everywhere else).
type AblationCutoff struct {
	Game string
	// AdaptiveMeanRadius is the trace-weighted mean cutoff radius under
	// the adaptive scheme.
	AdaptiveMeanRadius float64
	// GlobalRadius is the single radius that satisfies Constraint 1
	// everywhere (the minimum over leaf radii).
	GlobalRadius float64
	// AdaptiveHit and GlobalHit are Coterie cache hit ratios under each.
	AdaptiveHit float64
	GlobalHit   float64
}

// CutoffAblation measures what the adaptive scheme buys: the global
// worst-case radius shrinks far-BE similarity (smaller reuse thresholds)
// and with it the cache hit ratio.
func (l *Lab) CutoffAblation(game string) (*AblationCutoff, error) {
	env, err := l.Env(game)
	if err != nil {
		return nil, err
	}
	res := &AblationCutoff{Game: game}

	global := math.Inf(1)
	var ratioSum float64
	for _, r := range env.Map.Regions {
		if r.Radius < global {
			global = r.Radius
		}
		if r.Radius > 0 {
			ratioSum += r.DistThresh / r.Radius
		}
	}
	res.GlobalRadius = global
	ratio := ratioSum / float64(len(env.Map.Regions))

	tr := trace.Generate(env.Game, 60, l.Opts.Seed)
	var radSum float64
	for i := 0; i < tr.Len(); i += 30 {
		radSum += env.Map.RadiusAt(tr.Pos[i])
	}
	res.AdaptiveMeanRadius = radSum / float64((tr.Len()+29)/30)

	// Hit ratios from a replayed request stream: the reuse threshold
	// scales with the radius (the calibrated thresh/radius ratio), so the
	// global radius directly shrinks the reuse distance.
	hit := func(radiusAt func(geom.Vec2) float64) float64 {
		cfg, _ := cache.Version(3)
		c := cache.New(cfg)
		grid := env.Game.Scene.Grid
		q := env.Game.Scene.NewQuery()
		last := geom.GridPoint{I: -1, J: -1}
		for i := 0; i < tr.Len(); i++ {
			pt := grid.Snap(tr.Pos[i])
			if pt == last {
				continue
			}
			last = pt
			pos := grid.Pos(pt)
			rad := radiusAt(pos)
			leaf, _, _ := env.Meta(pt)
			sig := env.Game.Scene.NearSetSignature(q, pos, rad)
			req := cache.Request{
				Point: pt, Pos: pos, LeafID: leaf, NearSig: sig,
				DistThresh: ratio * rad,
			}
			if _, ok := c.Lookup(req); !ok {
				c.Insert(cache.Entry{Point: pt, Pos: pos, LeafID: leaf, NearSig: sig, Size: 1})
			}
		}
		return c.Stats().HitRatio()
	}
	res.AdaptiveHit = hit(func(p geom.Vec2) float64 { return env.Map.RadiusAt(p) })
	res.GlobalHit = hit(func(geom.Vec2) float64 { return global })
	return res, nil
}

// PrintCutoffAblation renders the comparison.
func PrintCutoffAblation(w io.Writer, r *AblationCutoff) {
	fprintf(w, "Ablation: adaptive vs global cutoff (%s)\n", r.Game)
	fprintf(w, "adaptive mean radius %.1f m (hit %.1f%%) vs global worst-case radius %.1f m (hit %.1f%%)\n",
		r.AdaptiveMeanRadius, r.AdaptiveHit*100, r.GlobalRadius, r.GlobalHit*100)
	fprintf(w, "paper: a single conservative radius wastes similarity in sparse regions (§4.3)\n")
}

// AblationLookup quantifies the three cache-lookup criteria (§5.3) by
// replaying a trace with each criterion disabled and counting unsafe hits
// — hits that would have merged incorrectly (wrong leaf region or wrong
// near-object set).
type AblationLookup struct {
	Game string
	// FullHit is the hit ratio with all three criteria.
	FullHit float64
	// NoLeafUnsafe / NoSigUnsafe are the fractions of lookups that become
	// unsafe hits when criterion 2 / criterion 3 is dropped.
	NoLeafUnsafe float64
	NoSigUnsafe  float64
}

// LookupAblation replays a single-player request stream three times.
func (l *Lab) LookupAblation(game string) (*AblationLookup, error) {
	env, err := l.Env(game)
	if err != nil {
		return nil, err
	}
	tr := trace.Generate(env.Game, 60, l.Opts.Seed+13)
	grid := env.Game.Scene.Grid

	type probe struct {
		dropLeaf, dropSig bool
	}
	run := func(p probe) (hitRatio, unsafe float64) {
		cfg, _ := cache.Version(3)
		c := cache.New(cfg)
		last := geom.GridPoint{I: -1, J: -1}
		var lookups, unsafeHits, hits int
		for i := 0; i < tr.Len(); i++ {
			pt := grid.Snap(tr.Pos[i])
			if pt == last {
				continue
			}
			last = pt
			leaf, sig, thresh := env.Meta(pt)
			reqLeaf, reqSig := leaf, sig
			if p.dropLeaf {
				reqLeaf = 0 // all entries stored with leaf 0: criterion off
			}
			if p.dropSig {
				reqSig = 0
			}
			req := cache.Request{
				Point: pt, Pos: grid.Pos(pt),
				LeafID: reqLeaf, NearSig: reqSig, DistThresh: thresh,
			}
			lookups++
			if e, ok := c.Lookup(req); ok {
				hits++
				// The hit is unsafe when the true metadata differs.
				trueLeaf, trueSig, _ := env.Meta(e.Point)
				if trueLeaf != leaf || trueSig != sig {
					unsafeHits++
				}
				continue
			}
			c.Insert(cache.Entry{
				Point: pt, Pos: req.Pos,
				LeafID: reqLeaf, NearSig: reqSig, Size: 1,
			})
		}
		if lookups == 0 {
			return 0, 0
		}
		return float64(hits) / float64(lookups), float64(unsafeHits) / float64(lookups)
	}

	full, _ := run(probe{})
	_, noLeafUnsafe := run(probe{dropLeaf: true})
	_, noSigUnsafe := run(probe{dropSig: true})
	return &AblationLookup{
		Game:         game,
		FullHit:      full,
		NoLeafUnsafe: noLeafUnsafe,
		NoSigUnsafe:  noSigUnsafe,
	}, nil
}

// PrintLookupAblation renders the comparison.
func PrintLookupAblation(w io.Writer, r *AblationLookup) {
	fprintf(w, "Ablation: cache lookup criteria (%s)\n", r.Game)
	fprintf(w, "full criteria hit %.1f%%; dropping the leaf-region check yields %.1f%% unsafe hits;\n",
		r.FullHit*100, r.NoLeafUnsafe*100)
	fprintf(w, "dropping the near-set check yields %.1f%% unsafe hits (visible merge artefacts)\n",
		r.NoSigUnsafe*100)
}

// AblationOverhear quantifies the inter-player caching extension the paper
// evaluates and rejects (§4.6): with wireless overhearing, every server
// reply lands in every player's cache (cache Version 5). The finding to
// reproduce end to end: overhearing barely improves the hit ratio or the
// per-player bandwidth over the shipped intra-player design, because
// players rarely follow exactly the same path.
type AblationOverhear struct {
	Game          string
	Players       int
	BaseHit       float64
	OverhearHit   float64
	BaseBEMbps    float64
	OverhearBEMps float64
}

// OverhearAblation runs 4-player Coterie sessions with and without
// overhearing.
func (l *Lab) OverhearAblation(game string) (*AblationOverhear, error) {
	env, err := l.Env(game)
	if err != nil {
		return nil, err
	}
	// Base and overhearing sessions are independent; run them concurrently.
	results := make([]*core.Result, 2)
	err = par.ForErr(2, func(i int) error {
		res, err := core.RunSession(env, core.SessionConfig{
			System:   core.Coterie,
			Players:  4,
			Seconds:  l.Opts.sessionSeconds(),
			Seed:     l.Opts.Seed,
			Overhear: i == 1,
		})
		if err != nil {
			return err
		}
		results[i] = res
		return nil
	})
	if err != nil {
		return nil, err
	}
	base, over := results[0], results[1]
	return &AblationOverhear{
		Game:          game,
		Players:       4,
		BaseHit:       base.Mean.CacheHitRatio,
		OverhearHit:   over.Mean.CacheHitRatio,
		BaseBEMbps:    base.Mean.BEMbps,
		OverhearBEMps: over.Mean.BEMbps,
	}, nil
}

// PrintOverhearAblation renders the comparison.
func PrintOverhearAblation(w io.Writer, r *AblationOverhear) {
	fprintf(w, "Ablation: inter-player overhearing (%s, %d players)\n", r.Game, r.Players)
	fprintf(w, "shipped design: %.1f%% hits, %.1f Mbps/player; with overhearing: %.1f%% hits, %.1f Mbps/player\n",
		r.BaseHit*100, r.BaseBEMbps, r.OverhearHit*100, r.OverhearBEMps)
	fprintf(w, "paper: caching frames sent to other players adds no significant benefit (§4.6)\n")
}

// AblationPrefetch compares prefetch lookahead settings: Coterie's large
// reuse-window lookahead versus Furion's one-frame-ahead fetch (§5.2).
type AblationPrefetch struct {
	Game string
	// StallFrames is the fraction of frames whose display blocked on the
	// network, per lookahead (seconds).
	Lookahead []float64
	StallFree []float64 // achieved FPS per lookahead
}

// PrefetchAblation sweeps the lookahead in 4-player Coterie sessions.
func (l *Lab) PrefetchAblation(game string) (*AblationPrefetch, error) {
	env, err := l.Env(game)
	if err != nil {
		return nil, err
	}
	lookaheads := []float64{0.05, 0.2, 0.4, 0.8}
	fps := make([]float64, len(lookaheads))
	err = par.ForErr(len(lookaheads), func(i int) error {
		cfg := prefetch.DefaultConfig()
		cfg.LookaheadSec = lookaheads[i]
		r, err := core.RunSession(env, core.SessionConfig{
			System:   core.Coterie,
			Players:  4,
			Seconds:  l.Opts.sessionSeconds(),
			Seed:     l.Opts.Seed,
			Prefetch: cfg,
		})
		if err != nil {
			return err
		}
		fps[i] = r.Mean.FPS
		return nil
	})
	if err != nil {
		return nil, err
	}
	return &AblationPrefetch{Game: game, Lookahead: lookaheads, StallFree: fps}, nil
}

// PrintPrefetchAblation renders the sweep.
func PrintPrefetchAblation(w io.Writer, r *AblationPrefetch) {
	fprintf(w, "Ablation: prefetch lookahead (%s, 4 players)\n", r.Game)
	for i := range r.Lookahead {
		fprintf(w, "lookahead %.2fs -> %.1f FPS\n", r.Lookahead[i], r.StallFree[i])
	}
	fprintf(w, "paper: the cache's reuse window makes prefetch scheduling forgiving (§5.2)\n")
}

package eval

import (
	"io"

	"coterie/internal/cache"
	"coterie/internal/core"
	"coterie/internal/geom"
	"coterie/internal/par"
	"coterie/internal/trace"
)

// Table5Row is the cache hit ratio of one Table 4 version at one player
// count (the §4.6 caching study on Viking Village).
type Table5Row struct {
	Version string
	Hit     [4]float64 // player counts 1-4
}

// paperTable5 are the published Viking Village hit ratios.
var paperTable5 = []Table5Row{
	{Version: "V1 (intra exact)", Hit: [4]float64{0, 0, 0, 0}},
	{Version: "V2 (inter exact)", Hit: [4]float64{0, 0, 0, 0}},
	{Version: "V3 (intra similar)", Hit: [4]float64{0.808, 0.808, 0.808, 0.808}},
	{Version: "V4 (inter similar)", Hit: [4]float64{0, 0.639, 0.672, 0.654}},
	{Version: "V5 (both similar)", Hit: [4]float64{0.808, 0.804, 0.804, 0.877}},
}

// Table5 replays party movement traces against an infinite frame cache
// under the five lookup configurations of Table 4, assuming every server
// reply is overheard and cached by all players (the paper's §4.6
// emulation; no frames are rendered — the outcome depends only on frame
// locations). The paper's findings to reproduce: exact matching yields no
// hits; intra-player similar matching alone reaches ~80%; adding
// inter-player frames on top adds almost nothing.
func (l *Lab) Table5(game string) ([]Table5Row, error) {
	env, err := l.Env(game)
	if err != nil {
		return nil, err
	}
	seconds := 120.0
	if l.Opts.Quick {
		seconds = 20
	}
	grid := env.Game.Scene.Grid

	cfgs := make([]cache.Config, 5)
	for v := 1; v <= 5; v++ {
		cfg, err := cache.Version(v)
		if err != nil {
			return nil, err
		}
		cfgs[v-1] = cfg
	}
	rows := make([]Table5Row, 5)
	for i := range rows {
		rows[i].Version = paperTable5[i].Version
	}

	// Each (version, players) replay is self-contained: it generates its own
	// party trace from a fixed seed and mutates only its own caches, so the
	// 20-cell grid fans out across workers, sharing env.Meta's memo.
	par.For(5*4, func(idx int) {
		vi, players := idx/4, idx%4+1
		party := trace.GenerateParty(env.Game, players, seconds, l.Opts.Seed+11)
		caches := make([]*cache.Cache, players)
		for i := range caches {
			caches[i] = cache.New(cfgs[vi]) // infinite capacity
		}
		// Lock-step replay: each tick, every player requests the far
		// BE frame for its current grid point; on a miss the reply is
		// overheard and inserted into every player's cache.
		var lastPt = make([]geom.GridPoint, players)
		for i := range lastPt {
			lastPt[i] = geom.GridPoint{I: -1, J: -1}
		}
		for tick := 0; tick < party[0].Len(); tick++ {
			for p := 0; p < players; p++ {
				pt := grid.Snap(party[p].Pos[tick])
				if pt == lastPt[p] {
					continue // no new frame needed while stationary
				}
				lastPt[p] = pt
				leaf, sig, thresh := env.Meta(pt)
				req := cache.Request{
					Point: pt, Pos: grid.Pos(pt),
					LeafID: leaf, NearSig: sig,
					DistThresh: thresh, Player: p,
				}
				if _, ok := caches[p].Lookup(req); ok {
					continue
				}
				// Miss: prefetch from the server; all players cache
				// the overheard reply.
				e := cache.Entry{
					Point: pt, Pos: req.Pos,
					LeafID: leaf, NearSig: sig,
					Size: 1, Owner: p,
				}
				for _, c := range caches {
					c.Insert(e)
				}
			}
		}
		var hit float64
		for _, c := range caches {
			hit += c.Stats().HitRatio()
		}
		rows[vi].Hit[players-1] = hit / float64(players)
	})
	return rows, nil
}

// PrintTable5 renders measured vs paper.
func PrintTable5(w io.Writer, rows []Table5Row) {
	fprintf(w, "Table 5: Viking Village cache hit ratio by version and player count (measured | paper)\n")
	fprintf(w, "%-20s %14s %14s %14s %14s\n", "version", "1P", "2P", "3P", "4P")
	for i, r := range rows {
		p := paperTable5[i]
		fprintf(w, "%-20s", r.Version)
		for c := 0; c < 4; c++ {
			fprintf(w, " %5.1f%%|%5.1f%%", r.Hit[c]*100, p.Hit[c]*100)
		}
		fprintf(w, "\n")
	}
}

// Table6Row is a game's average Coterie cache hit ratio (Table 6).
type Table6Row struct {
	Game     string
	HitRatio float64
	// PrefetchReduction is 1/(1-hit): the reduced prefetch frequency.
	PrefetchReduction float64
	Paper             float64
}

// paperTable6 are the published averages.
var paperTable6 = map[string]float64{"viking": 0.808, "racing": 0.823, "cts": 0.884}

// Table6 measures the average cache hit ratio across players in 4-player
// Coterie sessions for the three headline games. Paper: 80.8%, 82.3% and
// 88.4%, i.e. 5.2x-8.6x fewer prefetches.
func (l *Lab) Table6() ([]Table6Row, error) {
	if err := l.PrepareEnvs(headlineNames); err != nil {
		return nil, err
	}
	jobs := make([]sessionJob, len(headlineNames))
	for i, name := range headlineNames {
		jobs[i] = sessionJob{game: name, cfg: coreConfig{system: core.Coterie, players: 4, seconds: l.Opts.sessionSeconds(), seed: l.Opts.Seed}}
	}
	results, err := l.runSessions(jobs)
	if err != nil {
		return nil, err
	}
	rows := make([]Table6Row, len(headlineNames))
	for i, name := range headlineNames {
		h := results[i].Mean.CacheHitRatio
		red := 0.0
		if h < 1 {
			red = 1 / (1 - h)
		}
		rows[i] = Table6Row{Game: name, HitRatio: h, PrefetchReduction: red, Paper: paperTable6[name]}
	}
	return rows, nil
}

// PrintTable6 renders measured vs paper.
func PrintTable6(w io.Writer, rows []Table6Row) {
	fprintf(w, "Table 6: average Coterie cache hit ratio (4 players)\n")
	fprintf(w, "%-10s %12s %10s %16s\n", "game", "measured", "paper", "prefetch cut")
	for _, r := range rows {
		fprintf(w, "%-10s %11.1f%% %9.1f%% %15.1fx\n", r.Game, r.HitRatio*100, r.Paper*100, r.PrefetchReduction)
	}
	fprintf(w, "paper: 5.2x-8.6x reduced prefetch frequency\n")
}

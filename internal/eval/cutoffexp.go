package eval

import (
	"io"
	"math"
	"sort"
	"time"

	"coterie/internal/core"
	"coterie/internal/cutoff"
	"coterie/internal/device"
	"coterie/internal/games"
	"coterie/internal/par"
	"coterie/internal/trace"
)

// Table3Row is one game's adaptive-cutoff output (Table 3).
type Table3Row struct {
	Game        string
	DimW, DimD  float64
	GridPointsM float64
	DepthAvg    float64
	DepthMax    int
	LeafRegions int
	ProcTime    time.Duration
	CutoffCalcs int
	Paper       games.PaperStats
}

// Table3 runs the adaptive cutoff scheme over all nine games and reports
// world stats, quadtree shape and processing time alongside the paper's
// numbers. The headline claim: CTS's 268M grid points reduce to a few
// hundred leaf regions. A prepared environment may have loaded its map
// from the stored table (its ProcTime is then the load time), so each
// game's cutoff.Compute runs here, at the environment's parameters, and
// its time is the "calc time" column.
func (l *Lab) Table3() ([]Table3Row, error) {
	names := allGameNames()
	envs := make([]*core.Env, len(names))
	maps := make([]*cutoff.Map, len(names))
	err := par.ForErr(len(names), func(i int) error {
		env, err := l.Env(names[i])
		if err != nil {
			return err
		}
		envs[i] = env
		maps[i], err = cutoff.Compute(env.Game.Scene, env.Device.NearBERenderMs, env.Map.Params)
		return err
	})
	if err != nil {
		return nil, err
	}
	rows := make([]Table3Row, len(names))
	for i, env := range envs {
		spec, st := env.Game.Spec, maps[i].Stats
		rows[i] = Table3Row{
			Game:        names[i],
			DimW:        spec.Width,
			DimD:        spec.Depth,
			GridPointsM: float64(env.Game.Scene.Grid.Points()) / 1e6,
			DepthAvg:    st.DepthAvg,
			DepthMax:    st.DepthMax,
			LeafRegions: st.LeafCount,
			ProcTime:    st.ProcTime,
			CutoffCalcs: st.CutoffCalcs,
			Paper:       spec.Paper,
		}
	}
	return rows, nil
}

// PrintTable3 renders the rows.
func PrintTable3(w io.Writer, rows []Table3Row) {
	fprintf(w, "Table 3: adaptive cutoff scheme output (measured | paper)\n")
	fprintf(w, "%-10s %12s %10s %14s %12s %10s\n",
		"game", "dim (m)", "points(M)", "depth avg/max", "leaf regions", "calc time")
	for _, r := range rows {
		fprintf(w, "%-10s %5.0fx%-6.0f %4.1f|%-5.1f %5.2f/%d | %.2f/%d %5d | %-5d %9s\n",
			r.Game, r.DimW, r.DimD, r.GridPointsM, r.Paper.GridPointsM,
			r.DepthAvg, r.DepthMax, r.Paper.DepthAvg, r.Paper.DepthMax,
			r.LeafRegions, r.Paper.LeafRegions, r.ProcTime.Round(time.Millisecond))
	}
	fprintf(w, "paper processing ran hours on Unity; the simulated substrate computes the same partition in seconds\n")
}

// Fig6Row is the Constraint-1 violation rate at one K for one game.
type Fig6Row struct {
	Game      string
	K         int
	Violation float64 // fraction of trace locations violating Constraint 1
}

// Fig6 sweeps the per-region sample count K and measures the fraction of
// trace locations whose near-BE render time (plus measured FI time)
// violates the 16.7 ms constraint. Paper: at K=10 the violation rate is
// below 0.25%.
func (l *Lab) Fig6() ([]Fig6Row, error) {
	ks := []int{1, 2, 4, 6, 8, 10, 12}
	locs := 400
	if l.Opts.Quick {
		ks = []int{1, 4, 10}
		locs = 150
	}
	prof := device.Pixel2()
	typicalFI := prof.RenderMs(2 * 25_000)

	if err := l.PrepareEnvs(headlineNames); err != nil {
		return nil, err
	}
	// Each (game, K) cell recomputes the cutoff partition from its own seed
	// and replays the game's trace against it — fully independent, so the
	// grid fans out. Traces are generated in a sequential prepass; each cell
	// allocates its own scene query (the scratch is not shared across
	// goroutines).
	traces := make([]*trace.Trace, len(headlineNames))
	for gi, name := range headlineNames {
		env, err := l.Env(name)
		if err != nil {
			return nil, err
		}
		traces[gi] = trace.Generate(env.Game, 60, l.Opts.Seed+6)
	}
	rows := make([]Fig6Row, len(headlineNames)*len(ks))
	err := par.ForErr(len(rows), func(idx int) error {
		gi, ki := idx/len(ks), idx%len(ks)
		name, k := headlineNames[gi], ks[ki]
		env, err := l.Env(name)
		if err != nil {
			return err
		}
		scene := env.Game.Scene
		q := scene.NewQuery()
		tr := traces[gi]
		stride := tr.Len() / locs
		if stride < 1 {
			stride = 1
		}
		p := cutoff.DefaultParams()
		p.K = k
		p.Seed = l.Opts.Seed + int64(k)
		m, err := cutoff.Compute(scene, prof.NearBERenderMs, p)
		if err != nil {
			return err
		}
		viol, total := 0, 0
		for i := 0; i < tr.Len(); i += stride {
			pos := tr.Pos[i]
			r := m.RadiusAt(pos)
			// The paper measures the on-device rendering time, i.e.
			// the frustum-culled per-frame cost.
			rt := prof.NearBEFrameMs(scene.TrianglesWithin(q, pos, r))
			if rt+typicalFI > prof.VsyncMs {
				viol++
			}
			total++
		}
		rows[idx] = Fig6Row{Game: name, K: k, Violation: float64(viol) / float64(total)}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return rows, nil
}

// PrintFig6 renders the sweep.
func PrintFig6(w io.Writer, rows []Fig6Row) {
	fprintf(w, "Figure 6: %% of trace locations violating Constraint 1 vs K\n")
	fprintf(w, "%-10s %4s %10s\n", "game", "K", "violation")
	for _, r := range rows {
		fprintf(w, "%-10s %4d %9.2f%%\n", r.Game, r.K, r.Violation*100)
	}
	fprintf(w, "paper: below 0.25%% at K=10 for Viking, Racing and CTS\n")
}

// Fig7Row summarises a game's leaf cutoff-radius distribution.
type Fig7Row struct {
	Game                    string
	P10, P50, P90, Min, Max float64
}

// Fig7 reports the distribution of leaf-region cutoff radii per game.
// Paper: radii stay in a small range for all except DS (half spread
// 10-100 m) and Racing Mountain (evenly spread 10-180 m).
func (l *Lab) Fig7() ([]Fig7Row, error) {
	if err := l.PrepareEnvs(allGameNames()); err != nil {
		return nil, err
	}
	var rows []Fig7Row
	for _, name := range allGameNames() {
		env, err := l.Env(name)
		if err != nil {
			return nil, err
		}
		radii := make([]float64, 0, len(env.Map.Regions))
		for _, r := range env.Map.Regions {
			radii = append(radii, r.Radius)
		}
		sort.Float64s(radii)
		q := func(p float64) float64 { return radii[int(p*float64(len(radii)-1))] }
		rows = append(rows, Fig7Row{
			Game: name,
			P10:  q(0.10), P50: q(0.50), P90: q(0.90),
			Min: radii[0], Max: radii[len(radii)-1],
		})
	}
	return rows, nil
}

// PrintFig7 renders the distributions.
func PrintFig7(w io.Writer, rows []Fig7Row) {
	fprintf(w, "Figure 7: leaf-region cutoff radius distribution (m)\n")
	fprintf(w, "%-10s %8s %8s %8s %8s %8s\n", "game", "min", "p10", "p50", "p90", "max")
	for _, r := range rows {
		fprintf(w, "%-10s %8.1f %8.1f %8.1f %8.1f %8.1f\n", r.Game, r.Min, r.P10, r.P50, r.P90, r.Max)
	}
	fprintf(w, "paper: small ranges except DS (10-100 m tail) and Racing Mt (10-180 m spread)\n")
}

// Fig8Result is the density/radius correlation over Viking leaf regions.
type Fig8Result struct {
	Leaves      int
	Correlation float64 // Pearson, expected clearly negative
	Bins        []Fig8Bin
}

// Fig8Bin is one radius bin's mean density.
type Fig8Bin struct {
	RadiusLo, RadiusHi float64
	MeanDensity        float64
	Count              int
}

// Fig8 correlates leaf-region triangle density with the generated cutoff
// radius for Viking Village. Paper: clear inverse correlation (the higher
// the density, the smaller the radius) across 420 leaf regions spanning
// radii 2-28 m.
func (l *Lab) Fig8() (*Fig8Result, error) {
	env, err := l.Env("viking")
	if err != nil {
		return nil, err
	}
	regions := env.Map.Regions
	res := &Fig8Result{Leaves: len(regions)}

	var mx, my float64
	for _, r := range regions {
		mx += r.TriDensity
		my += r.Radius
	}
	n := float64(len(regions))
	mx /= n
	my /= n
	var sxy, sxx, syy float64
	for _, r := range regions {
		dx, dy := r.TriDensity-mx, r.Radius-my
		sxy += dx * dy
		sxx += dx * dx
		syy += dy * dy
	}
	if sxx > 0 && syy > 0 {
		res.Correlation = sxy / math.Sqrt(sxx*syy)
	}

	// Radius bins with mean density (the heatmap's marginal).
	edges := []float64{0, 2, 4, 8, 16, 32, math.Inf(1)}
	for i := 0; i+1 < len(edges); i++ {
		var sum float64
		var cnt int
		for _, r := range regions {
			if r.Radius >= edges[i] && r.Radius < edges[i+1] {
				sum += r.TriDensity
				cnt++
			}
		}
		if cnt > 0 {
			res.Bins = append(res.Bins, Fig8Bin{
				RadiusLo: edges[i], RadiusHi: edges[i+1],
				MeanDensity: sum / float64(cnt), Count: cnt,
			})
		}
	}
	return res, nil
}

// PrintFig8 renders the correlation.
func PrintFig8(w io.Writer, r *Fig8Result) {
	fprintf(w, "Figure 8: cutoff radius vs triangle density over %d Viking leaf regions\n", r.Leaves)
	fprintf(w, "Pearson correlation: %.2f (paper: clear inverse correlation)\n", r.Correlation)
	for _, b := range r.Bins {
		fprintf(w, "radius %5.1f-%5.1f m: mean density %8.0f tris/m^2 (%d leaves)\n",
			b.RadiusLo, b.RadiusHi, b.MeanDensity, b.Count)
	}
}

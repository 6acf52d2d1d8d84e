package eval

import (
	"io"

	"coterie/internal/core"
	"coterie/internal/par"
)

// coreConfig is the shared session shape used by testbed experiments.
type coreConfig struct {
	system  core.SystemKind
	players int
	seconds float64
	seed    int64
}

func coreRun(env *core.Env, c coreConfig) (*core.Result, error) {
	return core.RunSession(env, core.SessionConfig{
		System:  c.system,
		Players: c.players,
		Seconds: c.seconds,
		Seed:    c.seed,
	})
}

// sessionJob is one independent testbed session in a generator's work list.
// Sessions are self-contained (each builds its own simulator, Wi-Fi model
// and traces over the read-only Env), so a generator enumerates its
// (game, system, players) grid into jobs and fans them out.
type sessionJob struct {
	game string
	cfg  coreConfig
}

// runSessions executes the jobs across the lab's workers and returns the
// results in job order. Environments must already be prepared (PrepareEnvs).
func (l *Lab) runSessions(jobs []sessionJob) ([]*core.Result, error) {
	results := make([]*core.Result, len(jobs))
	err := par.ForErr(len(jobs), func(i int) error {
		env, err := l.Env(jobs[i].game)
		if err != nil {
			return err
		}
		res, err := coreRun(env, jobs[i].cfg)
		if err != nil {
			return err
		}
		results[i] = res
		return nil
	})
	if err != nil {
		return nil, err
	}
	return results, nil
}

// Table1Row is one (game, system, players) row of the §3 scaling study.
type Table1Row struct {
	Game    string
	System  core.SystemKind
	Players int
	M       core.PlayerMetrics
}

// Table1 reproduces the scaling experiment of §3: Mobile, Thin-client and
// Multi-Furion with 1 and 2 players on the three headline games. Findings
// to reproduce: Mobile is player-count independent at ~24-27 FPS;
// Thin-client's network latency roughly doubles with the second player;
// Multi-Furion reaches 60 FPS for one player and loses it at two.
func (l *Lab) Table1() ([]Table1Row, error) {
	if err := l.PrepareEnvs(headlineNames); err != nil {
		return nil, err
	}
	var jobs []sessionJob
	var rows []Table1Row
	for _, sys := range []core.SystemKind{core.Mobile, core.ThinClient, core.MultiFurion} {
		for _, name := range headlineNames {
			for _, players := range []int{1, 2} {
				jobs = append(jobs, sessionJob{game: name, cfg: coreConfig{system: sys, players: players, seconds: l.Opts.sessionSeconds(), seed: l.Opts.Seed}})
				rows = append(rows, Table1Row{Game: name, System: sys, Players: players})
			}
		}
	}
	results, err := l.runSessions(jobs)
	if err != nil {
		return nil, err
	}
	for i, res := range results {
		rows[i].M = res.Mean
	}
	return rows, nil
}

// PrintTable1 renders the rows.
func PrintTable1(w io.Writer, rows []Table1Row) {
	fprintf(w, "Table 1: Mobile / Thin-client / Multi-Furion scaling (1P, 2P)\n")
	fprintf(w, "%-20s %-8s %4s %6s %10s %8s %8s %10s %9s\n",
		"system", "game", "P", "FPS", "inter(ms)", "CPU%", "GPU%", "frame(KB)", "net(ms)")
	for _, r := range rows {
		fprintf(w, "%-20s %-8s %4d %6.1f %10.1f %8.1f %8.1f %10.0f %9.1f\n",
			r.System, r.Game, r.Players, r.M.FPS, r.M.InterFrameMs, r.M.CPUPct, r.M.GPUPct, r.M.FrameKB, r.M.NetDelayMs)
	}
	fprintf(w, "paper: Mobile 24-27 FPS either way; Multi-Furion 60 FPS at 1P and 42-48 at 2P with ~2x net delay\n")
}

// Table7Row compares visual quality, FPS and responsiveness of
// Thin-client, Multi-Furion and Coterie at 2 players.
type Table7Row struct {
	Game             string
	System           core.SystemKind
	SSIM             float64
	FPS              float64
	ResponsivenessMs float64
}

// Table7 reproduces the QoE comparison: Coterie achieves SSIM above 0.93
// (better than the others, because FI and near BE skip the codec), 60 FPS
// and responsiveness under 16 ms.
func (l *Lab) Table7() ([]Table7Row, error) {
	if err := l.PrepareEnvs(headlineNames); err != nil {
		return nil, err
	}
	systems := []core.SystemKind{core.ThinClient, core.MultiFurion, core.Coterie}
	var jobs []sessionJob
	for _, name := range headlineNames {
		for _, sys := range systems {
			jobs = append(jobs, sessionJob{game: name, cfg: coreConfig{system: sys, players: 2, seconds: l.Opts.sessionSeconds(), seed: l.Opts.Seed}})
		}
	}
	// The quality runs fan their own samples out internally, so the games
	// loop stays sequential here while runSessions handles the session grid.
	qualities := make([]map[core.SystemKind]float64, len(headlineNames))
	for gi, name := range headlineNames {
		env, err := l.Env(name)
		if err != nil {
			return nil, err
		}
		qualities[gi], err = visualQuality(env, l.Opts)
		if err != nil {
			return nil, err
		}
	}
	results, err := l.runSessions(jobs)
	if err != nil {
		return nil, err
	}
	var rows []Table7Row
	for gi, name := range headlineNames {
		for si, sys := range systems {
			res := results[gi*len(systems)+si]
			rows = append(rows, Table7Row{
				Game:             name,
				System:           sys,
				SSIM:             qualities[gi][sys],
				FPS:              res.Mean.FPS,
				ResponsivenessMs: res.Mean.ResponsivenessMs,
			})
		}
	}
	return rows, nil
}

// PrintTable7 renders the rows.
func PrintTable7(w io.Writer, rows []Table7Row) {
	fprintf(w, "Table 7: visual quality, FPS and responsiveness (2 players)\n")
	fprintf(w, "%-8s %-20s %8s %6s %10s\n", "game", "system", "SSIM", "FPS", "resp(ms)")
	for _, r := range rows {
		fprintf(w, "%-8s %-20s %8.3f %6.1f %10.1f\n", r.Game, r.System, r.SSIM, r.FPS, r.ResponsivenessMs)
	}
	fprintf(w, "paper: Coterie 0.937-0.979 SSIM, 60 FPS, 15.6-15.9 ms; others lower quality and FPS\n")
}

// Fig11Row is the FPS of one system at one player count for one game.
type Fig11Row struct {
	Game   string
	System core.SystemKind
	FPS    [4]float64 // players 1-4
}

// Fig11 reproduces the scalability figure: Multi-Furion with and without
// an exact-match cache degrade together toward ~24 FPS at 4 players;
// Coterie without cache degrades more slowly (smaller far-BE frames);
// full Coterie holds 60 FPS.
func (l *Lab) Fig11() ([]Fig11Row, error) {
	systems := []core.SystemKind{core.MultiFurion, core.MultiFurionCache, core.CoterieNoCache, core.Coterie}
	if err := l.PrepareEnvs(headlineNames); err != nil {
		return nil, err
	}
	var jobs []sessionJob
	var rows []Fig11Row
	for _, name := range headlineNames {
		for _, sys := range systems {
			rows = append(rows, Fig11Row{Game: name, System: sys})
			for players := 1; players <= 4; players++ {
				jobs = append(jobs, sessionJob{game: name, cfg: coreConfig{system: sys, players: players, seconds: l.Opts.sessionSeconds(), seed: l.Opts.Seed}})
			}
		}
	}
	results, err := l.runSessions(jobs)
	if err != nil {
		return nil, err
	}
	for i, res := range results {
		rows[i/4].FPS[i%4] = res.Mean.FPS
	}
	return rows, nil
}

// PrintFig11 renders the curves.
func PrintFig11(w io.Writer, rows []Fig11Row) {
	fprintf(w, "Figure 11: FPS vs number of players\n")
	fprintf(w, "%-8s %-20s %6s %6s %6s %6s\n", "game", "system", "1P", "2P", "3P", "4P")
	for _, r := range rows {
		fprintf(w, "%-8s %-20s %6.1f %6.1f %6.1f %6.1f\n",
			r.Game, r.System, r.FPS[0], r.FPS[1], r.FPS[2], r.FPS[3])
	}
	fprintf(w, "paper: Multi-Furion (+/- cache) fall to ~24 FPS at 4P; Coterie holds 60 FPS\n")
}

// Table8Row is Coterie's full per-player metrics at 1 and 2 players.
type Table8Row struct {
	Game    string
	Players int
	M       core.PlayerMetrics
}

// Table8 reports Coterie's performance and resource usage. Paper: 60 FPS,
// ~16 ms inter-frame, 27-32% CPU, 39-57% GPU, 150-280 KB frames, <9 ms
// transfer delay.
func (l *Lab) Table8() ([]Table8Row, error) {
	if err := l.PrepareEnvs(headlineNames); err != nil {
		return nil, err
	}
	var jobs []sessionJob
	var rows []Table8Row
	for _, name := range headlineNames {
		for _, players := range []int{1, 2} {
			jobs = append(jobs, sessionJob{game: name, cfg: coreConfig{system: core.Coterie, players: players, seconds: l.Opts.sessionSeconds(), seed: l.Opts.Seed}})
			rows = append(rows, Table8Row{Game: name, Players: players})
		}
	}
	results, err := l.runSessions(jobs)
	if err != nil {
		return nil, err
	}
	for i, res := range results {
		rows[i].M = res.Mean
	}
	return rows, nil
}

// PrintTable8 renders the rows.
func PrintTable8(w io.Writer, rows []Table8Row) {
	fprintf(w, "Table 8: Coterie on the simulated Pixel 2 testbed\n")
	fprintf(w, "%-8s %4s %6s %10s %8s %8s %10s %9s\n",
		"game", "P", "FPS", "inter(ms)", "CPU%", "GPU%", "frame(KB)", "net(ms)")
	for _, r := range rows {
		fprintf(w, "%-8s %4d %6.1f %10.1f %8.1f %8.1f %10.0f %9.1f\n",
			r.Game, r.Players, r.M.FPS, r.M.InterFrameMs, r.M.CPUPct, r.M.GPUPct, r.M.FrameKB, r.M.NetDelayMs)
	}
	fprintf(w, "paper: 60 FPS, 16.0-16.6 ms, 27-32%% CPU, 39-57%% GPU, 150-280 KB, <9 ms net delay\n")
}

// Table9Row is one game's network bandwidth usage.
type Table9Row struct {
	Game string
	// FurionBEMbps is Multi-Furion's per-player BE bandwidth at 1 player
	// (more players saturate the medium, as in the paper).
	FurionBEMbps float64
	// CoterieBEMbps is the per-player BE bandwidth at 1-4 players.
	CoterieBEMbps [4]float64
	// CoterieFIKbps is the total FI traffic at 1-4 players.
	CoterieFIKbps [4]float64
	// Reduction is Furion / Coterie per-player BE at 1 player.
	Reduction float64
}

// Table9 measures server bandwidth: Coterie cuts per-player network load
// by an order of magnitude versus Multi-Furion, while FI traffic stays 2-4
// orders of magnitude below BE traffic. Paper: 10.6x-25.7x reduction.
func (l *Lab) Table9() ([]Table9Row, error) {
	if err := l.PrepareEnvs(headlineNames); err != nil {
		return nil, err
	}
	// Per game: one Multi-Furion session followed by Coterie at 1-4 players.
	const perGame = 5
	var jobs []sessionJob
	for _, name := range headlineNames {
		jobs = append(jobs, sessionJob{game: name, cfg: coreConfig{system: core.MultiFurion, players: 1, seconds: l.Opts.sessionSeconds(), seed: l.Opts.Seed}})
		for players := 1; players <= 4; players++ {
			jobs = append(jobs, sessionJob{game: name, cfg: coreConfig{system: core.Coterie, players: players, seconds: l.Opts.sessionSeconds(), seed: l.Opts.Seed}})
		}
	}
	results, err := l.runSessions(jobs)
	if err != nil {
		return nil, err
	}
	var rows []Table9Row
	for gi, name := range headlineNames {
		base := gi * perGame
		row := Table9Row{Game: name, FurionBEMbps: results[base].Mean.BEMbps}
		for players := 1; players <= 4; players++ {
			res := results[base+players]
			row.CoterieBEMbps[players-1] = res.Mean.BEMbps
			row.CoterieFIKbps[players-1] = res.FIKbps
		}
		if row.CoterieBEMbps[0] > 0 {
			row.Reduction = row.FurionBEMbps / row.CoterieBEMbps[0]
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// PrintTable9 renders the rows.
func PrintTable9(w io.Writer, rows []Table9Row) {
	fprintf(w, "Table 9: per-player BE bandwidth (Mbps) and total FI traffic (Kbps)\n")
	fprintf(w, "%-8s %12s %28s %28s %10s\n", "game", "Furion 1P", "Coterie BE 1P/2P/3P/4P", "Coterie FI 1P/2P/3P/4P", "reduction")
	for _, r := range rows {
		fprintf(w, "%-8s %12.0f %7.0f%7.0f%7.0f%7.0f %7.0f%7.0f%7.0f%7.0f %9.1fx\n",
			r.Game, r.FurionBEMbps,
			r.CoterieBEMbps[0], r.CoterieBEMbps[1], r.CoterieBEMbps[2], r.CoterieBEMbps[3],
			r.CoterieFIKbps[0], r.CoterieFIKbps[1], r.CoterieFIKbps[2], r.CoterieFIKbps[3],
			r.Reduction)
	}
	fprintf(w, "paper: Furion 264-283 Mbps/player; Coterie 11-26 Mbps at 1P; reduction 10.6x-25.7x\n")
}

// Fig12Row summarises a 30-minute Coterie run's resource trajectory.
type Fig12Row struct {
	Game      string
	Players   int
	AvgCPUPct float64
	AvgGPUPct float64
	AvgPowerW float64
	EndTempC  float64
	MaxTempC  float64
	// FlatCPU reports whether CPU load stayed flat over the run (max
	// second-bucket within 15 points of the mean).
	FlatCPU bool
	// BatteryHours extrapolates runtime at the observed power draw.
	BatteryHours float64
	// Series is player 0's per-second resource trace (CPU/GPU/power/
	// temperature over time, the actual curves of Fig 12).
	Series []core.SeriesPoint
}

// Fig12 runs long Coterie sessions at 1-4 players and reports resource
// stability. Paper: CPU <= 40%, GPU <= 65%, steady over 30 minutes,
// temperature under the 52 C limit, ~4 W, > 2.5 h battery life.
func (l *Lab) Fig12() ([]Fig12Row, error) {
	seconds := 30.0 * 60
	if l.Opts.Quick {
		seconds = 60
	}
	if err := l.PrepareEnvs(headlineNames); err != nil {
		return nil, err
	}
	var jobs []sessionJob
	for _, name := range headlineNames {
		for _, players := range []int{1, 4} {
			jobs = append(jobs, sessionJob{game: name, cfg: coreConfig{system: core.Coterie, players: players, seconds: seconds, seed: l.Opts.Seed}})
		}
	}
	results, err := l.runSessions(jobs)
	if err != nil {
		return nil, err
	}
	var rows []Fig12Row
	for i, job := range jobs {
		env, err := l.Env(job.game)
		if err != nil {
			return nil, err
		}
		res := results[i]
		row := Fig12Row{
			Game: job.game, Players: job.cfg.players,
			AvgCPUPct: res.Mean.CPUPct,
			AvgGPUPct: res.Mean.GPUPct,
			AvgPowerW: res.Mean.PowerW,
			EndTempC:  res.Mean.TempC,
			FlatCPU:   true,
			Series:    res.Series,
		}
		for _, s := range res.Series {
			if s.TempC > row.MaxTempC {
				row.MaxTempC = s.TempC
			}
			if s.CPUPct > res.Mean.CPUPct+15 || s.CPUPct < res.Mean.CPUPct-15 {
				row.FlatCPU = false
			}
		}
		row.BatteryHours = env.Device.BatteryHours(row.AvgPowerW)
		rows = append(rows, row)
	}
	return rows, nil
}

// PrintFig12 renders the rows.
func PrintFig12(w io.Writer, rows []Fig12Row) {
	fprintf(w, "Figure 12: Coterie resource usage over a long run\n")
	fprintf(w, "%-8s %3s %8s %8s %8s %9s %9s %6s %9s\n",
		"game", "P", "CPU%", "GPU%", "power W", "temp end", "temp max", "flat", "battery h")
	for _, r := range rows {
		fprintf(w, "%-8s %3d %8.1f %8.1f %8.2f %9.1f %9.1f %6v %9.1f\n",
			r.Game, r.Players, r.AvgCPUPct, r.AvgGPUPct, r.AvgPowerW, r.EndTempC, r.MaxTempC, r.FlatCPU, r.BatteryHours)
	}
	fprintf(w, "paper: <=40%% CPU, <=65%% GPU, flat; temp under 52C; ~4W; >2.5h battery\n")
}

package main

import (
	"fmt"
	"net"
	"time"

	"coterie/internal/core"
	"coterie/internal/games"
	"coterie/internal/loadgen"
	"coterie/internal/obs"
	"coterie/internal/render"
	"coterie/internal/server"
)

// deadlineRow is one cell of the deadline A/B: a player count crossed with
// the EDF scheduler on or off, every request stamped with the 16.7 ms
// vsync budget.
type deadlineRow struct {
	Players      int     `json:"players"`
	Sched        bool    `json:"sched"`
	FramesPerSec float64 `json:"frames_per_sec"`
	P50Ms        float64 `json:"p50_ms"`
	P99Ms        float64 `json:"p99_ms"`
	// Compliance is the fraction of successful fetches that fit the budget.
	Compliance float64 `json:"deadline_compliance"`
	// Errors counts shed requests (admission control; sched-on only).
	Errors int64 `json:"errors"`
	// The degrade-rung mix of what was served: exact renders, stale
	// similar frames.
	RungExact int64 `json:"rung_exact"`
	RungStale int64 `json:"rung_stale"`
}

// deadlineAB is the deadline-scheduling bench section: the same walk load
// with the staged pipeline off (pure FIFO) and on (EDF + admission control
// + degrade ladder), at increasing player counts.
type deadlineAB struct {
	DeadlineMs float64       `json:"deadline_ms"`
	Rows       []deadlineRow `json:"rows"`
	// MaxPlayersWithinBudget is the headline: the largest sched-on player
	// count whose p99 fetch latency still fit the frame budget.
	MaxPlayersWithinBudget int `json:"max_players_within_budget"`
}

// deadlineABPlayers are the fan-out points of the deadline A/B.
var deadlineABPlayers = []int{4, 16, 64}

// deadlineABRate is the per-player request rate: one fetch per 60 Hz vsync
// tick, the stream the 16.7 ms deadline models.
const deadlineABRate = 60.0

// runDeadlineAB hosts a pool server in-process and measures walk-load fetch
// latency against the 16.7 ms budget with the scheduler off, then on. The
// load models real headsets: each player requests at vsync rate (60 Hz)
// and walks at human speed — a quarter grid cell per tick, so consecutive
// frames land on the same or an adjacent grid point, the frame-similarity
// regime the paper's design is built on. A warm-up pass replays every
// player's exact trajectory first (the load-harness stand-in for the
// paper's offline pre-rendering of all reachable points, §5.1), so both
// arms fetch from the same warm store and the A/B isolates scheduling.
func runDeadlineAB(quick bool) (*deadlineAB, error) {
	spec, err := games.ByName("pool")
	if err != nil {
		return nil, err
	}
	env, err := core.PrepareEnv(spec, core.EnvOptions{
		RenderCfg:   render.Config{W: 128, H: 64},
		SizeSamples: 2,
	})
	if err != nil {
		return nil, err
	}

	dur := 2 * time.Second
	if quick {
		dur = 500 * time.Millisecond
	}
	const seed = 1
	grid := env.Game.Scene.Grid
	stepM := grid.Step / 4
	// Disperse players over the central half of the map: multiplayer
	// sessions spread across the scene, each player working their own
	// region of the frame store.
	spreadM := (grid.Bounds.MaxX - grid.Bounds.MinX) / 4
	maxPlayers := deadlineABPlayers[len(deadlineABPlayers)-1]
	// A measured run takes rate*dur trajectory steps per player. Warm the
	// first half of each trajectory: the back half walks into cold grid
	// cells, so the run exercises the degrade ladder the way a live
	// session does when players leave pre-rendered ground.
	steps := int(dur.Seconds()*deadlineABRate) + 4

	// Each arm gets its own server (and so its own frame store) with an
	// identical trajectory warm-up: on a shared store the first arm would
	// render the cold cells and hand the second arm a warmer world.
	runArm := func(sched bool) ([]deadlineRow, error) {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		defer ln.Close()
		srv := server.New(env)
		srv.SetSchedEnabled(sched)
		go srv.Serve(ln)
		points, err := loadgen.Warm(loadgen.Config{
			Addr: ln.Addr().String(), Game: "pool",
			Players: maxPlayers, Seed: seed, StepM: stepM, SpreadM: spreadM,
		}, steps/2)
		if err != nil {
			return nil, fmt.Errorf("warmup: %w", err)
		}
		fmt.Printf("[deadline-ab: sched=%-5v warmed %d trajectory points (%d players x %d steps)]\n",
			sched, points, maxPlayers, steps/2)
		var rows []deadlineRow
		for _, players := range deadlineABPlayers {
			rep, err := loadgen.Run(loadgen.Config{
				Addr: ln.Addr().String(), Game: "pool",
				Players: players, Rate: deadlineABRate, Duration: dur,
				Seed: seed, StepM: stepM, SpreadM: spreadM,
				DeadlineMs: obs.FrameBudgetMs, Server: srv,
			})
			if err != nil {
				return nil, fmt.Errorf("%dp: %w", players, err)
			}
			row := deadlineRow{
				Players:      players,
				Sched:        sched,
				FramesPerSec: rep.FramesPerSec,
				P50Ms:        rep.P50Ms,
				P99Ms:        rep.P99Ms,
				Compliance:   rep.DeadlineCompliance,
				Errors:       rep.Errors,
				RungExact:    rep.RungExact,
				RungStale:    rep.RungStale,
			}
			rows = append(rows, row)
			fmt.Printf("[deadline-ab: %2d players sched=%-5v  p99 %7.2f ms  within-budget %5.1f%%  rungs %d/%d  %d shed]\n",
				players, sched, row.P99Ms, 100*row.Compliance,
				row.RungExact, row.RungStale, row.Errors)
		}
		return rows, nil
	}

	out := &deadlineAB{DeadlineMs: obs.FrameBudgetMs}
	for _, sched := range []bool{false, true} {
		rows, err := runArm(sched)
		if err != nil {
			return nil, fmt.Errorf("deadline-ab sched=%v: %w", sched, err)
		}
		out.Rows = append(out.Rows, rows...)
		for _, row := range rows {
			if row.Sched && row.P99Ms <= obs.FrameBudgetMs && row.Players > out.MaxPlayersWithinBudget {
				out.MaxPlayersWithinBudget = row.Players
			}
		}
	}
	return out, nil
}

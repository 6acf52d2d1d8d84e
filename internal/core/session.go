package core

import (
	"fmt"

	"coterie/internal/cache"
	"coterie/internal/fisync"
	"coterie/internal/geom"
	"coterie/internal/netsim"
	"coterie/internal/obs"
	"coterie/internal/prefetch"
	"coterie/internal/runtime"
	"coterie/internal/trace"
)

// Timing constants of the testbed's server model in milliseconds. The
// client-side pipeline constants (merge, FI sync, sensor, thin overlay)
// live in internal/runtime with the pipeline itself.
const (
	// serverRenderMs and serverEncodeMs model the thin-client server
	// rendering and encoding one 4K frame on demand; the GTX 1080 Ti
	// renders fast but 4K H.264 encoding dominates.
	serverRenderMs = 10
	serverEncodeMs = 13
	// serverLookupMs is the Coterie/Furion server turnaround for a
	// pre-rendered, pre-encoded frame.
	serverLookupMs = 0.4
)

// SessionConfig describes one testbed run.
type SessionConfig struct {
	System  SystemKind
	Players int
	Seconds float64
	Seed    int64
	// CachePolicy is the replacement policy (LRU default).
	CachePolicy cache.Policy
	// CacheBytes caps the frame cache; 0 means 512 MB (a Pixel 2 can
	// dedicate about that much of its 4 GB to frames).
	CacheBytes int64
	// Prefetch tunes the lookahead prefetcher; zero value uses defaults.
	Prefetch prefetch.Config
	// Overhear enables the inter-player caching extension the paper
	// evaluates and rejects (§4.6): every server reply is overheard by
	// all clients and inserted into their caches (cache Version 5).
	// Current phone NICs cannot do this (no promiscuous mode), so the
	// shipped design leaves it off; it exists here for the ablation.
	Overhear bool
	// Traces, when it holds exactly Players traces, overrides the
	// generated movement (used to replay identical movement across the
	// simulated and live backends); otherwise traces are generated from
	// Seed as usual.
	Traces []*trace.Trace
	// Obs, when non-nil, receives the session's metrics and frame traces:
	// the shared pipeline instruments (aggregated across players) plus the
	// simulated medium's counters. nil disables instrumentation.
	Obs *obs.Registry
}

// PlayerMetrics aggregates one client's session, matching the columns of
// Tables 1, 7 and 8. It is the runtime's metrics type, re-exported.
type PlayerMetrics = runtime.PlayerMetrics

// SeriesPoint is one per-second sample of Fig 12's resource traces.
type SeriesPoint = runtime.SeriesPoint

// Result is the outcome of a session.
type Result struct {
	Game    string
	System  SystemKind
	Players int
	Seconds float64
	Per     []PlayerMetrics
	// Mean is the across-players average.
	Mean PlayerMetrics
	// FIKbps is the total FI sync traffic through the server.
	FIKbps float64
	// Series holds player 0's per-second resource samples.
	Series []SeriesPoint
}

// RunSession executes one deterministic testbed session: it assembles the
// shared runtime pipeline (internal/runtime) over the discrete-event
// backend — netsim.Sim as the clock, simSource as the frame source, the
// in-process hub as FI sync — and runs all players to completion.
func RunSession(env *Env, cfg SessionConfig) (*Result, error) {
	if cfg.Players < 1 {
		return nil, fmt.Errorf("core: need at least one player")
	}
	if cfg.Seconds <= 0 {
		return nil, fmt.Errorf("core: session duration must be positive")
	}
	if cfg.CacheBytes == 0 {
		cfg.CacheBytes = 512 << 20
	}
	if cfg.Prefetch.LookaheadSec == 0 {
		cfg.Prefetch = prefetch.DefaultConfig()
	}

	var sizer *FrameSizer
	if cfg.System.UsesBEPrefetch() || cfg.System == ThinClient {
		var err error
		if sizer, err = env.Sizes(); err != nil {
			return nil, fmt.Errorf("core: frame sizing failed: %w", err)
		}
	}

	sim := netsim.NewSim()
	wifi := netsim.NewWiFi(sim)
	wifi.Instrument(cfg.Obs)
	hub := fisync.NewHub()
	traces := cfg.Traces
	if len(traces) != cfg.Players {
		traces = trace.GenerateParty(env.Game, cfg.Players, cfg.Seconds, cfg.Seed)
	}

	endMs := cfg.Seconds * 1000
	fi := runtime.NewHubFISync(hub)
	clients := make([]*runtime.Client, cfg.Players)
	srcs := make([]*simSource, cfg.Players)
	for i := 0; i < cfg.Players; i++ {
		deps := runtime.Deps{Clock: sim, FI: fi, Trace: traces[i], Obs: cfg.Obs}
		if cfg.System.UsesBEPrefetch() {
			src := &simSource{
				sim:       sim,
				wifi:      wifi,
				sizer:     sizer,
				kind:      cfg.System,
				serverMs:  serverLookupMs,
				latencies: &runtime.LatencyAcc{},
			}
			ccfg := cacheConfigFor(cfg.System, cfg.CachePolicy, cfg.CacheBytes)
			if cfg.Overhear && cfg.System.SimilarityCache() {
				ccfg, _ = cache.Version(5)
				ccfg.Policy = cfg.CachePolicy
				ccfg.CapacityBytes = cfg.CacheBytes
			}
			ca := cache.New(ccfg)
			pfCfg := cfg.Prefetch
			if !cfg.System.SimilarityCache() {
				// Furion-style prefetch aims at the next grid point only
				// (one frame ahead); Coterie's cache reuse creates the
				// larger prefetching window (§5.2) that lets it aim
				// further out.
				pfCfg.NeighborHops = 0
				pfCfg.LookaheadSec = 1.2 * runtime.TickMs / 1000
			}
			deps.Source = src
			deps.Cache = ca
			deps.Prefetcher = prefetch.New(env.Game.Scene.Grid, env.Meta, ca, src, i, pfCfg)
			deps.Net = wifi
			deps.Latencies = src.latencies
			srcs[i] = src
		} else if cfg.System == ThinClient {
			src := &simSource{
				sim:   sim,
				wifi:  wifi,
				sizer: sizer,
				kind:  ThinClient,
				// On-demand render + encode precede the transfer; the
				// reported latency covers the transfer only.
				renderMs:  serverRenderMs,
				encodeMs:  serverEncodeMs,
				latencies: &runtime.LatencyAcc{},
			}
			deps.Source = src
			deps.Net = wifi
			deps.Latencies = src.latencies
			srcs[i] = src
		}
		clients[i] = runtime.NewClient(i, runtimeConfig(env, cfg, endMs), deps)
	}
	if cfg.Overhear && cfg.System.SimilarityCache() {
		wireOverhearing(env, clients, srcs)
	}
	for _, c := range clients {
		c.Start()
	}
	sim.Run(endMs)

	res := &Result{
		Game:    env.Game.Spec.Name,
		System:  cfg.System,
		Players: cfg.Players,
		Seconds: cfg.Seconds,
	}
	for i, c := range clients {
		res.Per = append(res.Per, c.Metrics())
		if i == 0 {
			res.Series = c.Series()
		}
	}
	res.Mean = meanMetrics(res.Per)
	res.FIKbps = float64(hub.UploadBytes+hub.DownloadBytes) * 8 / 1000 / cfg.Seconds
	return res, nil
}

// runtimeConfig maps the prepared environment onto the pipeline's view of
// it. Each client gets its own spatial query (the closures are called
// only from that client's clock callbacks).
func runtimeConfig(env *Env, cfg SessionConfig, endMs float64) runtime.Config {
	scene := env.Game.Scene
	q := scene.NewQuery()
	return runtime.Config{
		System:         cfg.System,
		Device:         env.Device,
		Grid:           scene.Grid,
		EndMs:          endMs,
		TotalTriangles: scene.TotalTriangles(),
		LODFactor:      env.Game.Spec.LODFactor(),
		RadiusAt:       env.Map.RadiusAt,
		TrianglesWithin: func(pos geom.Vec2, radius float64) int {
			return scene.TrianglesWithin(q, pos, radius)
		},
	}
}

// wireOverhearing makes every completed fetch visible to every client's
// cache (the §4.6 emulation assumption: "the reply from the server is
// overheard and cached by all the players").
func wireOverhearing(env *Env, clients []*runtime.Client, srcs []*simSource) {
	grid := env.Game.Scene.Grid
	for i, src := range srcs {
		i := i
		src.onDeliver = func(pt geom.GridPoint, size int) {
			leaf, sig, _ := env.Meta(pt)
			e := cache.Entry{
				Point: pt, Pos: grid.Pos(pt),
				LeafID: leaf, NearSig: sig,
				Size: size, Owner: i,
			}
			for j, other := range clients {
				if j != i && other.Cache() != nil {
					other.Cache().Insert(e)
				}
			}
		}
	}
}

func meanMetrics(per []PlayerMetrics) PlayerMetrics {
	var m PlayerMetrics
	if len(per) == 0 {
		return m
	}
	n := float64(len(per))
	for _, p := range per {
		m.Frames += p.Frames
		m.FPS += p.FPS / n
		m.InterFrameMs += p.InterFrameMs / n
		m.P95InterFrameMs += p.P95InterFrameMs / n
		m.P99InterFrameMs += p.P99InterFrameMs / n
		m.ResponsivenessMs += p.ResponsivenessMs / n
		m.CPUPct += p.CPUPct / n
		m.GPUPct += p.GPUPct / n
		m.PowerW += p.PowerW / n
		m.TempC += p.TempC / n
		m.FrameKB += p.FrameKB / n
		m.NetDelayMs += p.NetDelayMs / n
		m.BEMbps += p.BEMbps / n
		m.CacheHitRatio += p.CacheHitRatio / n
		m.PrefetchIssued += p.PrefetchIssued
	}
	return m
}

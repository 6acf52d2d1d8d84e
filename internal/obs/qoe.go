package obs

import "sort"

// QoE monitoring on top of the per-frame trace ring: sliding-window
// FPS, missed-vsync ratio, and frame-budget compliance against the
// 16.7 ms/frame budget the paper's QoE evaluation (Table 7) is built on,
// plus per-player cache-hit rate. Everything here is a cold path — QoE is
// computed on demand from recorded spans (the /qoe admin endpoint, the
// -metrics-json dump, cmd/obsreport); nothing is added to the per-frame
// recording cost.

// FrameBudgetMs is the per-frame display budget at 60 Hz: a pipeline
// that finishes within it never misses a vsync.
const FrameBudgetMs = 16.7

// DefaultQoEWindowMs is the sliding-window length QoE statistics cover
// when the caller does not choose one (~2 s: long enough to smooth
// per-frame jitter, short enough to track QoE changes mid-session).
const DefaultQoEWindowMs = 2000

// missedVsyncFactor: a frame interval beyond this multiple of the budget
// means the frame slipped past its vsync slot (the floor is one budget
// interval, so anything at 1.5x or more skipped at least one refresh).
const missedVsyncFactor = 1.5

// QoEConfig tunes a QoE computation.
type QoEConfig struct {
	// WindowMs is the sliding-window length anchored at the most recent
	// displayed frame; <= 0 means DefaultQoEWindowMs.
	WindowMs float64
	// BudgetMs is the per-frame budget compliance is judged against;
	// <= 0 means FrameBudgetMs.
	BudgetMs float64
	// Player restricts the computation to one player; < 0 means all.
	Player int
}

// PlayerQoE summarises one player's QoE over the window.
type PlayerQoE struct {
	Player int `json:"player"`
	// Frames is the number of displayed frames inside the window.
	Frames int `json:"frames"`
	// WindowFPS is the display rate over the window (frames over the
	// span between the first and last display in it).
	WindowFPS float64 `json:"window_fps"`
	// MissedVsyncRatio is the fraction of window frames whose inter-frame
	// interval exceeded 1.5x the budget (the frame slipped at least one
	// vsync slot).
	MissedVsyncRatio float64 `json:"missed_vsync_ratio"`
	// BudgetComplianceRatio is the fraction of window frames whose
	// pipeline span (display minus slack, from pose sample) fit the
	// budget.
	BudgetComplianceRatio float64 `json:"budget_compliance_ratio"`
	// CacheHitRate is the fraction of window frames whose displayed BE
	// frame came out of the similarity cache.
	CacheHitRate float64 `json:"cache_hit_rate"`
	// MeanFrameMs and MaxFrameMs summarise the pipeline span (ready time
	// minus pose-sample time) over the window.
	MeanFrameMs float64 `json:"mean_frame_ms"`
	MaxFrameMs  float64 `json:"max_frame_ms"`
	// DegradedRatio is the fraction of window frames whose delivering
	// fetch was served off the quality-degrade ladder's stale rung
	// (rung 1, the only rung below exact); RungStale counts those frames.
	// The rung is SSIM-bounded (≥ 0.90 against the true frame), so this
	// measures how often deadline pressure traded exactness for latency,
	// not visible quality loss.
	DegradedRatio float64 `json:"degraded_ratio"`
	RungStale     int     `json:"rung_stale"`
}

// QoESnapshot is a point-in-time QoE summary over the recorded spans.
type QoESnapshot struct {
	WindowMs float64 `json:"window_ms"`
	BudgetMs float64 `json:"budget_ms"`
	// EndMs is the window anchor: the latest display time among the
	// considered spans (session milliseconds).
	EndMs float64 `json:"end_ms"`
	// Spans is how many recorded spans fell inside the window.
	Spans int `json:"spans"`
	// Players holds one entry per player seen in the window, ascending.
	Players []PlayerQoE `json:"players"`
	// All aggregates every player in the window (Player == -1).
	All PlayerQoE `json:"all"`
}

// ComputeQoE derives a QoE snapshot from recorded frame spans (any order;
// they are grouped per player and ordered by display time internally).
func ComputeQoE(spans []FrameSpan, cfg QoEConfig) QoESnapshot {
	if cfg.WindowMs <= 0 {
		cfg.WindowMs = DefaultQoEWindowMs
	}
	if cfg.BudgetMs <= 0 {
		cfg.BudgetMs = FrameBudgetMs
	}
	snap := QoESnapshot{WindowMs: cfg.WindowMs, BudgetMs: cfg.BudgetMs}
	snap.All.Player = -1

	var end float64
	for i := range spans {
		if cfg.Player >= 0 && spans[i].Player != cfg.Player {
			continue
		}
		if spans[i].DisplayMs > end {
			end = spans[i].DisplayMs
		}
	}
	snap.EndMs = end
	cut := end - cfg.WindowMs

	// Group the in-window spans per player, preserving each player's
	// display order (the ring records oldest-first; out-of-order input is
	// handled by the per-player sort below being insertion-friendly).
	perPlayer := map[int][]FrameSpan{}
	for _, sp := range spans {
		if cfg.Player >= 0 && sp.Player != cfg.Player {
			continue
		}
		if sp.DisplayMs <= cut {
			continue
		}
		perPlayer[sp.Player] = append(perPlayer[sp.Player], sp)
		snap.Spans++
	}

	var agg accQoE
	ids := make([]int, 0, len(perPlayer))
	for id := range perPlayer {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	for _, id := range ids {
		ps := perPlayer[id]
		sort.SliceStable(ps, func(i, j int) bool { return ps[i].DisplayMs < ps[j].DisplayMs })
		var acc accQoE
		acc.add(ps, cfg.BudgetMs)
		agg.add(ps, cfg.BudgetMs)
		snap.Players = append(snap.Players, acc.finish(id))
	}
	snap.All = agg.finish(-1)
	return snap
}

// accQoE accumulates the window statistics for one player (or the
// aggregate).
type accQoE struct {
	frames     int
	missed     int
	compliant  int
	hits       int
	rungStale  int
	frameSum   float64
	frameMax   float64
	firstMs    float64
	lastMs     float64
	spanBounds bool
}

func (a *accQoE) add(ps []FrameSpan, budget float64) {
	for i, sp := range ps {
		a.frames++
		// Pipeline span: when the frame was ready, measured from the pose
		// sample (the display adds only the vsync floor, i.e. the slack).
		frameMs := sp.DisplayMs - sp.SlackMs - sp.StartMs
		a.frameSum += frameMs
		if frameMs > a.frameMax {
			a.frameMax = frameMs
		}
		if frameMs <= budget+1e-9 {
			a.compliant++
		}
		if sp.CacheHit {
			a.hits++
		}
		if sp.DegradeRung == 1 {
			a.rungStale++
		}
		if i > 0 {
			if inter := sp.DisplayMs - ps[i-1].DisplayMs; inter > budget*missedVsyncFactor {
				a.missed++
			}
		}
		if !a.spanBounds || sp.DisplayMs < a.firstMs {
			a.firstMs = sp.DisplayMs
		}
		if !a.spanBounds || sp.DisplayMs > a.lastMs {
			a.lastMs = sp.DisplayMs
		}
		a.spanBounds = true
	}
}

func (a *accQoE) finish(player int) PlayerQoE {
	q := PlayerQoE{Player: player, Frames: a.frames, MaxFrameMs: a.frameMax}
	if a.frames == 0 {
		return q
	}
	q.MeanFrameMs = a.frameSum / float64(a.frames)
	q.MissedVsyncRatio = float64(a.missed) / float64(a.frames)
	q.BudgetComplianceRatio = float64(a.compliant) / float64(a.frames)
	q.CacheHitRate = float64(a.hits) / float64(a.frames)
	q.RungStale = a.rungStale
	q.DegradedRatio = float64(a.rungStale) / float64(a.frames)
	if a.frames > 1 && a.lastMs > a.firstMs {
		q.WindowFPS = float64(a.frames-1) / (a.lastMs - a.firstMs) * 1000
	}
	return q
}

// QoE computes a QoE snapshot over the registry's trace ring. A nil
// registry (or one that never recorded a span) yields an empty snapshot.
func (r *Registry) QoE(cfg QoEConfig) QoESnapshot {
	if r == nil {
		return ComputeQoE(nil, cfg)
	}
	t := r.Trace()
	return ComputeQoE(t.Recent(t.Len()), cfg)
}

package obs

import (
	"log/slog"
	"sync"
	"time"
)

// SLO is a windowed error-budget tracker for the frame-serving objective
// ("99% of frames within the 16.7 ms budget") over a 1 m and a 5 m
// window. Observations land in per-second buckets on a fixed ring sized
// to the long window, so the tracker's memory is constant and old
// seconds expire by being overwritten — there is no background
// goroutine. Burn rate is the classic SRE ratio: the observed error rate
// over a window divided by the error budget the objective allows
// (1 − objective). Burn 1.0 means the budget is being consumed exactly
// as provisioned; a fast burn (both windows well above 1) means the
// budget will be gone long before the window ends and is worth waking
// someone for.
//
// What counts against the budget is the caller's choice: the server
// marks a frame bad when it blew its deadline budget, was served off a
// degrade rung, or was a failover re-render — quality loss spends the
// budget exactly like lateness does.
//
// All methods tolerate a nil receiver, so an unconfigured tracker costs
// one branch.
type SLO struct {
	mu sync.Mutex

	objective float64 // fraction of frames that must be good
	budgetMs  float64 // latency budget a good frame must meet

	buckets [sloLongS]sloBucket // ring over the long window, one bucket per second

	totalFrames int64
	totalBad    int64

	// lastSec is the second of the newest observation; gauges are
	// refreshed when an observation crosses into a new second, so the hot
	// path pays the O(window) sums at most once per second.
	lastSec   int64
	lastWarnS int64
	nowMs     func() float64
	logger    *slog.Logger
	burnShort *Gauge // milli-units (burn 1.0 → 1000)
	burnLong  *Gauge
	frames    *Counter
	badFrames *Counter
	fastBurns *Counter
}

type sloBucket struct {
	sec    int64
	frames int64
	bad    int64
}

// SLOConfig configures the tracker; zero fields take defaults.
type SLOConfig struct {
	// Objective is the fraction of frames that must be good (default
	// 0.99, i.e. a 1% error budget).
	Objective float64
	// BudgetMs is the latency budget a good frame must meet (default
	// FrameBudgetMs). Informational: callers decide goodness, the budget
	// is echoed in snapshots so dashboards show what was asked.
	BudgetMs float64
	// Logger receives fast-burn warnings (default slog.Default()).
	Logger *slog.Logger
}

// DefaultSLOObjective is the objective a zero SLOConfig.Objective takes.
const DefaultSLOObjective = 0.99

const (
	// The burn-rate windows in seconds: the 1 m and 5 m the gauge names
	// state.
	sloShortS = 60
	sloLongS  = 300
	// sloFastBurn is the burn rate above which — on both windows at once —
	// the tracker logs a warning: the 1% budget gone in a tenth of the
	// window.
	sloFastBurn = 10.0
)

// NewSLO creates a tracker. The zero-value config gives a 99%-within-
// 16.7 ms objective over 1 m / 5 m windows.
func NewSLO(cfg SLOConfig) *SLO {
	if cfg.Objective <= 0 || cfg.Objective >= 1 {
		cfg.Objective = DefaultSLOObjective
	}
	if cfg.BudgetMs <= 0 {
		cfg.BudgetMs = FrameBudgetMs
	}
	if cfg.Logger == nil {
		cfg.Logger = slog.Default()
	}
	return &SLO{
		objective: cfg.Objective,
		budgetMs:  cfg.BudgetMs,
		lastSec:   -1,
		lastWarnS: -1,
		nowMs:     func() float64 { return float64(time.Now().UnixNano()) / 1e6 },
		logger:    cfg.Logger,
	}
}

// Instrument resolves the tracker's registry instruments: burn-rate
// gauges in milli-units (`slo.burn_rate_1m_milli` reads 1000 at burn
// 1.0 — gauges are integral) and running frame/bad counters.
func (s *SLO) Instrument(r *Registry) {
	if s == nil || r == nil {
		return
	}
	s.mu.Lock()
	s.burnShort = r.Gauge("slo.burn_rate_1m_milli")
	s.burnLong = r.Gauge("slo.burn_rate_5m_milli")
	s.frames = r.Counter("slo.frames")
	s.badFrames = r.Counter("slo.bad_frames")
	s.fastBurns = r.Counter("slo.fast_burn_warnings")
	s.mu.Unlock()
}

// BudgetMs returns the configured latency budget (0 for a nil tracker).
func (s *SLO) BudgetMs() float64 {
	if s == nil {
		return 0
	}
	return s.budgetMs
}

// Observe records one frame against the budget at the current wall time.
func (s *SLO) Observe(good bool) {
	if s == nil {
		return
	}
	s.ObserveAt(s.nowMs(), good)
}

// ObserveAt records one frame at an explicit wall time in milliseconds.
// Time is expected to move forward; an observation older than the ring
// simply lands in a bucket that the next fresh second reclaims.
func (s *SLO) ObserveAt(wallMs float64, good bool) {
	if s == nil {
		return
	}
	sec := int64(wallMs / 1000)
	s.mu.Lock()
	b := &s.buckets[((sec%sloLongS)+sloLongS)%sloLongS]
	if b.sec != sec {
		b.sec, b.frames, b.bad = sec, 0, 0
	}
	b.frames++
	s.totalFrames++
	if !good {
		b.bad++
		s.totalBad++
	}
	rolled := sec != s.lastSec
	s.lastSec = sec
	var short, long sloWindowTally
	if rolled {
		short = s.tallyLocked(sec, sloShortS)
		long = s.tallyLocked(sec, sloLongS)
	}
	s.mu.Unlock()

	s.frames.Inc()
	if !good {
		s.badFrames.Inc()
	}
	if rolled {
		s.publish(sec, short, long)
	}
}

// sloWindowTally is a window sum used internally and in snapshots.
type sloWindowTally struct {
	frames int64
	bad    int64
}

// tallyLocked sums the buckets covering (sec−window, sec]. Caller holds
// s.mu.
func (s *SLO) tallyLocked(sec, window int64) sloWindowTally {
	var t sloWindowTally
	for i := int64(0); i < window; i++ {
		at := sec - i
		b := &s.buckets[((at%sloLongS)+sloLongS)%sloLongS]
		if b.sec != at {
			continue // bucket holds another second (expired or future)
		}
		t.frames += b.frames
		t.bad += b.bad
	}
	return t
}

// burnRate converts a window tally into a burn rate: error rate over the
// budget rate. An empty window burns nothing.
func (s *SLO) burnRate(t sloWindowTally) float64 {
	if t.frames == 0 {
		return 0
	}
	return (float64(t.bad) / float64(t.frames)) / (1 - s.objective)
}

// publish refreshes the gauges and emits the rate-limited fast-burn
// warning. Called outside the mutex, at most once per second.
func (s *SLO) publish(sec int64, short, long sloWindowTally) {
	bs, bl := s.burnRate(short), s.burnRate(long)
	s.burnShort.Set(int64(bs * 1000))
	s.burnLong.Set(int64(bl * 1000))
	if bs >= sloFastBurn && bl >= sloFastBurn && sec-s.lastWarnS >= sloShortS {
		s.mu.Lock()
		warn := sec-s.lastWarnS >= sloShortS
		if warn {
			s.lastWarnS = sec
		}
		s.mu.Unlock()
		if warn {
			s.fastBurns.Inc()
			s.logger.Warn("slo fast burn",
				"objective", s.objective,
				"burn_rate_short", bs,
				"burn_rate_long", bl,
				"bad_short", short.bad,
				"frames_short", short.frames)
		}
	}
}

// SLOWindow is the per-window slice of an SLO snapshot.
type SLOWindow struct {
	Seconds   int64   `json:"seconds"`
	Frames    int64   `json:"frames"`
	BadFrames int64   `json:"bad_frames"`
	ErrorRate float64 `json:"error_rate"`
	BurnRate  float64 `json:"burn_rate"`
}

// SLOSnapshot is the JSON shape served at /slo.
type SLOSnapshot struct {
	Objective   float64   `json:"objective"`
	BudgetMs    float64   `json:"budget_ms"`
	TotalFrames int64     `json:"total_frames"`
	TotalBad    int64     `json:"total_bad_frames"`
	Short       SLOWindow `json:"short"`
	Long        SLOWindow `json:"long"`
	// FastBurn reports that both windows currently burn at or above the
	// fast-burn threshold (10).
	FastBurn bool `json:"fast_burn"`
}

// Snapshot summarises the tracker at the current wall time.
func (s *SLO) Snapshot() SLOSnapshot {
	if s == nil {
		return SLOSnapshot{}
	}
	return s.SnapshotAt(s.nowMs())
}

// SnapshotAt summarises the tracker as of an explicit wall time in
// milliseconds (exact window arithmetic for tests).
func (s *SLO) SnapshotAt(wallMs float64) SLOSnapshot {
	if s == nil {
		return SLOSnapshot{}
	}
	sec := int64(wallMs / 1000)
	s.mu.Lock()
	short := s.tallyLocked(sec, sloShortS)
	long := s.tallyLocked(sec, sloLongS)
	snap := SLOSnapshot{
		Objective:   s.objective,
		BudgetMs:    s.budgetMs,
		TotalFrames: s.totalFrames,
		TotalBad:    s.totalBad,
	}
	s.mu.Unlock()
	snap.Short = s.window(sloShortS, short)
	snap.Long = s.window(sloLongS, long)
	snap.FastBurn = snap.Short.BurnRate >= sloFastBurn && snap.Long.BurnRate >= sloFastBurn
	return snap
}

func (s *SLO) window(seconds int64, t sloWindowTally) SLOWindow {
	w := SLOWindow{Seconds: seconds, Frames: t.frames, BadFrames: t.bad}
	if t.frames > 0 {
		w.ErrorRate = float64(t.bad) / float64(t.frames)
	}
	w.BurnRate = s.burnRate(t)
	return w
}

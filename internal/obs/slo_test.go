package obs

import (
	"io"
	"log/slog"
	"testing"
)

// sloForTest builds a tracker (60 s short / 300 s long window) with a 90%
// objective (10% error budget), quiet logger.
func sloForTest() *SLO {
	return NewSLO(SLOConfig{
		Objective: 0.9,
		Logger:    slog.New(slog.NewTextHandler(io.Discard, nil)),
	})
}

// TestSLOBurnRateMath: burn rate is error rate over budget. 1 bad in 10
// frames against a 10% budget burns exactly 1.0; all-bad burns 10.
func TestSLOBurnRateMath(t *testing.T) {
	s := sloForTest()
	base := 100_000.0 // sec 100
	for i := 0; i < 9; i++ {
		s.ObserveAt(base, true)
	}
	s.ObserveAt(base, false)

	snap := s.SnapshotAt(base)
	// The windows are the 1 m and 5 m the burn-rate gauge names state.
	if snap.Short.Seconds != 60 || snap.Long.Seconds != 300 {
		t.Fatalf("windows = %d s / %d s, want 60 / 300", snap.Short.Seconds, snap.Long.Seconds)
	}
	if snap.Short.Frames != 10 || snap.Short.BadFrames != 1 {
		t.Fatalf("short tally = %d/%d, want 1/10", snap.Short.BadFrames, snap.Short.Frames)
	}
	if got, want := snap.Short.ErrorRate, 0.1; !near(got, want) {
		t.Errorf("short error rate = %v, want %v", got, want)
	}
	if got, want := snap.Short.BurnRate, 1.0; !near(got, want) {
		t.Errorf("short burn rate = %v, want %v", got, want)
	}
	if got, want := snap.Long.BurnRate, 1.0; !near(got, want) {
		t.Errorf("long burn rate = %v, want %v", got, want)
	}
	if snap.TotalFrames != 10 || snap.TotalBad != 1 {
		t.Errorf("totals = %d/%d, want 1/10", snap.TotalBad, snap.TotalFrames)
	}
	if snap.FastBurn {
		t.Error("burn 1.0 flagged as fast burn")
	}
}

// TestSLOWindowRollAtBucketEdge: observations at second S stay in the
// short window through its last covered second (S+59 for the 60 s window)
// and vanish exactly at S+60; the long window holds them until S+300.
func TestSLOWindowRollAtBucketEdge(t *testing.T) {
	s := sloForTest()
	sec := func(n int64) float64 { return float64(n) * 1000 }
	for i := 0; i < 5; i++ {
		s.ObserveAt(sec(100), false)
	}

	if got := s.SnapshotAt(sec(159)).Short.Frames; got != 5 {
		t.Errorf("short frames at edge second 159 = %d, want 5", got)
	}
	if got := s.SnapshotAt(sec(160)).Short.Frames; got != 0 {
		t.Errorf("short frames past edge second 160 = %d, want 0", got)
	}
	if got := s.SnapshotAt(sec(160)).Long.Frames; got != 5 {
		t.Errorf("long frames at second 160 = %d, want 5", got)
	}
	if got := s.SnapshotAt(sec(399)).Long.Frames; got != 5 {
		t.Errorf("long frames at edge second 399 = %d, want 5", got)
	}
	if got := s.SnapshotAt(sec(400)).Long.Frames; got != 0 {
		t.Errorf("long frames past edge second 400 = %d, want 0", got)
	}
	// Totals never expire with the windows.
	if snap := s.SnapshotAt(sec(400)); snap.TotalFrames != 5 || snap.TotalBad != 5 {
		t.Errorf("totals = %d/%d, want 5/5", snap.TotalBad, snap.TotalFrames)
	}
}

// TestSLORingReclaim: a second that maps onto the same ring slot as an
// expired one (sec + long window) reclaims the bucket rather than merging
// with the stale tally.
func TestSLORingReclaim(t *testing.T) {
	s := sloForTest()
	s.ObserveAt(100_000, false) // sec 100
	s.ObserveAt(100_000, false)
	s.ObserveAt(400_000, true) // sec 400: same slot in the 300-bucket ring

	snap := s.SnapshotAt(400_000)
	if snap.Long.Frames != 1 || snap.Long.BadFrames != 0 {
		t.Errorf("long tally after reclaim = %d bad / %d frames, want 0/1", snap.Long.BadFrames, snap.Long.Frames)
	}
	if snap.TotalFrames != 3 || snap.TotalBad != 2 {
		t.Errorf("totals = %d/%d, want 2/3", snap.TotalBad, snap.TotalFrames)
	}
}

// TestSLOGaugesAndFastBurn: crossing into a new second refreshes the
// milli-unit burn gauges, and a sustained all-bad burn (rate 10 at a 10%
// budget) trips the rate-limited fast-burn warning counter exactly once
// per short window.
func TestSLOGaugesAndFastBurn(t *testing.T) {
	s := sloForTest()
	r := NewRegistry()
	s.Instrument(r)

	// Fill both windows with all-bad seconds: burn = (1/1)/0.1 = 10 on
	// both, at and above the default fast-burn threshold.
	for sec := int64(100); sec < 340; sec++ {
		s.ObserveAt(float64(sec)*1000, false)
	}
	snap := r.Snapshot()
	if got := snap.Gauges["slo.burn_rate_1m_milli"]; got != 10_000 {
		t.Errorf("short burn gauge = %d, want 10000", got)
	}
	if got := snap.Gauges["slo.burn_rate_5m_milli"]; got != 10_000 {
		t.Errorf("long burn gauge = %d, want 10000", got)
	}
	if got := snap.Counters["slo.frames"]; got != 240 {
		t.Errorf("slo.frames = %d, want 240", got)
	}
	if got := snap.Counters["slo.bad_frames"]; got != 240 {
		t.Errorf("slo.bad_frames = %d, want 240", got)
	}
	// 240 all-bad seconds with a 60 s short window: warnings at most once
	// per window → 4 expected (seconds 100, 160, 220, 280).
	if got := snap.Counters["slo.fast_burn_warnings"]; got != 4 {
		t.Errorf("slo.fast_burn_warnings = %d, want 4", got)
	}
	if !s.SnapshotAt(339_000).FastBurn {
		t.Error("snapshot does not report fast burn")
	}

	// Recovery: a full short window of good frames drops the short gauge
	// to zero.
	for sec := int64(340); sec < 401; sec++ {
		s.ObserveAt(float64(sec)*1000, true)
	}
	if got := r.Snapshot().Gauges["slo.burn_rate_1m_milli"]; got != 0 {
		t.Errorf("short burn gauge after recovery = %d, want 0", got)
	}
}

// TestSLONilSafety: the nil tracker is inert everywhere the server might
// touch it.
func TestSLONilSafety(t *testing.T) {
	var s *SLO
	s.Observe(true)
	s.ObserveAt(1000, false)
	s.Instrument(NewRegistry())
	if s.BudgetMs() != 0 {
		t.Error("nil BudgetMs != 0")
	}
	if snap := s.Snapshot(); snap.TotalFrames != 0 {
		t.Error("nil Snapshot not empty")
	}
}

func near(a, b float64) bool {
	d := a - b
	return d < 1e-9 && d > -1e-9
}

package obs

import (
	"encoding/json"
	"math"
	"net/http/httptest"
	"sync"
	"testing"
)

func TestNilRegistryAndInstrumentsAreNoOps(t *testing.T) {
	var r *Registry
	c := r.Counter("x")
	g := r.Gauge("y")
	h := r.Histogram("z")
	tr := r.Trace()
	c.Inc()
	c.Add(5)
	g.Set(3)
	g.Add(-1)
	h.Observe(1.5)
	tr.Record(&FrameSpan{})
	if c.Value() != 0 || g.Value() != 0 || h.Count() != 0 || tr.Recorded() != 0 {
		t.Fatal("nil instruments recorded something")
	}
	s := r.Snapshot()
	if len(s.Counters) != 0 || len(s.Gauges) != 0 || len(s.Histograms) != 0 {
		t.Fatalf("nil registry snapshot not empty: %+v", s)
	}
}

func TestRegistryInstrumentsAreShared(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("cache.hits")
	b := r.Counter("cache.hits")
	if a != b {
		t.Fatal("same name returned distinct counters")
	}
	a.Inc()
	b.Add(2)
	if got := r.Counter("cache.hits").Value(); got != 3 {
		t.Fatalf("shared counter = %d, want 3", got)
	}
	if r.Histogram("h") != r.Histogram("h") {
		t.Fatal("same name returned distinct histograms")
	}
	if r.Gauge("g") != r.Gauge("g") {
		t.Fatal("same name returned distinct gauges")
	}
}

func TestCountersConcurrent(t *testing.T) {
	r := NewRegistry()
	const workers, per = 8, 1000
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := r.Counter("n")
			h := r.Histogram("lat")
			for j := 0; j < per; j++ {
				c.Inc()
				h.Observe(float64(j % 50))
			}
		}()
	}
	wg.Wait()
	if got := r.Counter("n").Value(); got != workers*per {
		t.Fatalf("counter = %d, want %d", got, workers*per)
	}
	if got := r.Histogram("lat").Count(); got != workers*per {
		t.Fatalf("histogram count = %d, want %d", got, workers*per)
	}
}

func TestHistogramQuantiles(t *testing.T) {
	h := NewHistogram() // default latency buckets
	// 100 samples at 1..100 ms: p50 ~ 50, p95 ~ 95, p99 ~ 99.
	for i := 1; i <= 100; i++ {
		h.Observe(float64(i))
	}
	s := h.Snapshot()
	if s.Count != 100 {
		t.Fatalf("count = %d", s.Count)
	}
	if s.Mean < 49 || s.Mean > 52 {
		t.Fatalf("mean = %.2f, want ~50.5", s.Mean)
	}
	// Bucketed quantiles are coarse; assert the right bucket, not the
	// exact rank.
	if s.P50 < 33.3 || s.P50 > 66.7 {
		t.Fatalf("p50 = %.2f, want within (33.3, 66.7]", s.P50)
	}
	if s.P95 < 66.7 || s.P95 > 133 {
		t.Fatalf("p95 = %.2f, want within (66.7, 133]", s.P95)
	}
	if s.P99 < s.P95 || s.P99 > 133 {
		t.Fatalf("p99 = %.2f, want >= p95 and within (66.7, 133]", s.P99)
	}
}

func TestHistogramOverflowBucket(t *testing.T) {
	h := NewHistogram(1, 2)
	h.Observe(100)
	h.Observe(200)
	s := h.Snapshot()
	if s.Counts[2] != 2 {
		t.Fatalf("overflow bucket = %d, want 2", s.Counts[2])
	}
	if s.P99 != 2 { // overflow reports the largest finite edge
		t.Fatalf("overflow p99 = %.2f, want 2", s.P99)
	}
}

func TestTraceRingWrapsAndOrdersOldestFirst(t *testing.T) {
	tr := NewTraceRing(4)
	for i := 1; i <= 6; i++ {
		tr.Record(&FrameSpan{Frame: int64(i)})
	}
	if tr.Recorded() != 6 {
		t.Fatalf("recorded = %d", tr.Recorded())
	}
	got := tr.Recent(10) // more than capacity: clamps to the 4 retained
	if len(got) != 4 {
		t.Fatalf("recent len = %d", len(got))
	}
	for i, sp := range got {
		if want := int64(3 + i); sp.Frame != want {
			t.Fatalf("recent[%d].Frame = %d, want %d", i, sp.Frame, want)
		}
	}
	if last := tr.Recent(1); len(last) != 1 || last[0].Frame != 6 {
		t.Fatalf("recent(1) = %+v", last)
	}
}

func TestAdminMetricsAndTraceEndpoints(t *testing.T) {
	r := NewRegistry()
	r.Counter("server.frames_served").Add(7)
	r.Gauge("server.sessions_active").Set(1)
	r.Histogram("server.render_ms").Observe(3)
	r.Trace().Record(&FrameSpan{Frame: 1, FetchMs: 2.5, CacheHit: true})
	srv := httptest.NewServer(AdminMux(r))
	defer srv.Close()

	res, err := srv.Client().Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer res.Body.Close()
	var snap Snapshot
	if err := json.NewDecoder(res.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	if snap.Counters["server.frames_served"] != 7 {
		t.Fatalf("metrics snapshot: %+v", snap)
	}
	if snap.Histograms["server.render_ms"].Count != 1 {
		t.Fatalf("histogram missing from snapshot: %+v", snap)
	}

	res, err = srv.Client().Get(srv.URL + "/trace?n=8")
	if err != nil {
		t.Fatal(err)
	}
	defer res.Body.Close()
	var spans []FrameSpan
	if err := json.NewDecoder(res.Body).Decode(&spans); err != nil {
		t.Fatal(err)
	}
	if len(spans) != 1 || spans[0].FetchMs != 2.5 || !spans[0].CacheHit {
		t.Fatalf("trace spans: %+v", spans)
	}

	for _, path := range []string{"/debug/vars", "/debug/pprof/"} {
		res, err := srv.Client().Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		res.Body.Close()
		if res.StatusCode != 200 {
			t.Fatalf("%s -> %d", path, res.StatusCode)
		}
	}
}

func TestHistogramFrameBudgetEdge(t *testing.T) {
	// The default buckets put an exact edge at the 16.7 ms vsync budget;
	// "made the frame deadline" must be readable from the histogram, so an
	// observation of exactly 16.7 ms counts as within budget (edges are
	// upper-inclusive) and the next representable value beyond it does not.
	h := NewHistogram() // default latency buckets
	budgetIdx := -1
	for i, b := range DefaultLatencyBuckets {
		if b == FrameBudgetMs {
			budgetIdx = i
		}
	}
	if budgetIdx < 0 {
		t.Fatalf("default buckets have no edge at %.1f ms: %v", FrameBudgetMs, DefaultLatencyBuckets)
	}
	h.Observe(FrameBudgetMs)
	h.Observe(math.Nextafter(FrameBudgetMs, math.Inf(1)))
	s := h.Snapshot()
	if s.Counts[budgetIdx] != 1 {
		t.Errorf("16.7 ms landed outside the budget bucket: counts %v", s.Counts)
	}
	if s.Counts[budgetIdx+1] != 1 {
		t.Errorf("just-over-budget observation not in the next bucket: counts %v", s.Counts)
	}
}

func TestTraceRingRecentFor(t *testing.T) {
	tr := NewTraceRing(8)
	for i := 1; i <= 6; i++ {
		tr.Record(&FrameSpan{Player: i % 2, Frame: int64(i)})
	}
	got := tr.RecentFor(10, 1) // frames 1, 3, 5
	if len(got) != 3 {
		t.Fatalf("RecentFor(10, 1) len = %d, want 3", len(got))
	}
	for i, want := range []int64{1, 3, 5} {
		if got[i].Frame != want || got[i].Player != 1 {
			t.Fatalf("RecentFor[%d] = %+v, want frame %d", i, got[i], want)
		}
	}
	// n limits to the most recent matches, still oldest-first.
	if got := tr.RecentFor(2, 0); len(got) != 2 || got[0].Frame != 4 || got[1].Frame != 6 {
		t.Fatalf("RecentFor(2, 0) = %+v", got)
	}
	// player < 0 matches everything, same as Recent.
	if got := tr.RecentFor(10, -1); len(got) != 6 {
		t.Fatalf("RecentFor(10, -1) len = %d, want 6", len(got))
	}
	if got := tr.RecentFor(10, 7); len(got) != 0 {
		t.Fatalf("unknown player returned %d spans", len(got))
	}
	var nilRing *TraceRing
	if got := nilRing.RecentFor(4, 1); got != nil {
		t.Fatalf("nil ring returned %v", got)
	}
}

func TestComputeQoE(t *testing.T) {
	// Two players at a 20 ms cadence; player 0 all within budget and all
	// cache hits, player 1 with one huge frame (missed vsync + over
	// budget) and no hits.
	var spans []FrameSpan
	for i := 0; i < 10; i++ {
		at := float64(i) * 20
		spans = append(spans, FrameSpan{
			Player: 0, Frame: int64(i + 1), StartMs: at,
			DisplayMs: at + 16.7, SlackMs: 6.7, CacheHit: true, // 10 ms pipeline
		})
	}
	for i := 0; i < 9; i++ {
		at := float64(i) * 20
		spans = append(spans, FrameSpan{
			Player: 1, Frame: int64(i + 1), StartMs: at,
			DisplayMs: at + 16.7, SlackMs: 1.7, // 15 ms pipeline
		})
	}
	// Player 1's last frame arrives 60 ms after the previous: > 1.5x the
	// budget, so it both misses vsync and blows the budget.
	spans = append(spans, FrameSpan{
		Player: 1, Frame: 10, StartMs: 180, DisplayMs: 160 + 16.7 + 60, SlackMs: 0,
	})

	q := ComputeQoE(spans, QoEConfig{WindowMs: 1000, Player: -1})
	if q.Spans != 20 || len(q.Players) != 2 {
		t.Fatalf("snapshot = %+v", q)
	}
	p0, p1 := q.Players[0], q.Players[1]
	if p0.Player != 0 || p1.Player != 1 {
		t.Fatalf("player order: %+v", q.Players)
	}
	if p0.Frames != 10 || p0.MissedVsyncRatio != 0 || p0.BudgetComplianceRatio != 1 || p0.CacheHitRate != 1 {
		t.Errorf("player 0 = %+v", p0)
	}
	// 50 fps: 9 intervals over 180 ms.
	if p0.WindowFPS < 49 || p0.WindowFPS > 51 {
		t.Errorf("player 0 fps = %.2f, want ~50", p0.WindowFPS)
	}
	if p1.Frames != 10 || p1.CacheHitRate != 0 {
		t.Errorf("player 1 = %+v", p1)
	}
	if want := 0.1; p1.MissedVsyncRatio != want {
		t.Errorf("player 1 missed-vsync = %.2f, want %.2f", p1.MissedVsyncRatio, want)
	}
	if want := 0.9; p1.BudgetComplianceRatio != want {
		t.Errorf("player 1 compliance = %.2f, want %.2f", p1.BudgetComplianceRatio, want)
	}
	if q.All.Frames != 20 {
		t.Errorf("aggregate = %+v", q.All)
	}

	// The window clips old frames: anchored at the latest display, a 50 ms
	// window keeps only frames within (end-50, end].
	clipped := ComputeQoE(spans, QoEConfig{WindowMs: 50, Player: -1})
	if clipped.Spans >= 20 {
		t.Errorf("window did not clip: %d spans", clipped.Spans)
	}
	// Per-player filtering.
	only1 := ComputeQoE(spans, QoEConfig{WindowMs: 1000, Player: 1})
	if len(only1.Players) != 1 || only1.Players[0].Player != 1 || only1.All.Frames != 10 {
		t.Errorf("player filter = %+v", only1)
	}
	// Empty input yields a well-formed zero snapshot.
	empty := ComputeQoE(nil, QoEConfig{})
	if empty.Spans != 0 || empty.All.Frames != 0 || empty.WindowMs != DefaultQoEWindowMs {
		t.Errorf("empty = %+v", empty)
	}
}

func TestAdminTracePlayerFilterAndQoE(t *testing.T) {
	r := NewRegistry()
	for i := 0; i < 6; i++ {
		at := float64(i) * 20
		r.Trace().Record(&FrameSpan{
			Player: i % 2, Frame: int64(i + 1), StartMs: at,
			DisplayMs: at + 16.7, SlackMs: 6.7, CacheHit: i%2 == 0,
		})
	}
	srv := httptest.NewServer(AdminMux(r))
	defer srv.Close()

	res, err := srv.Client().Get(srv.URL + "/trace?n=8&player=1")
	if err != nil {
		t.Fatal(err)
	}
	defer res.Body.Close()
	var spans []FrameSpan
	if err := json.NewDecoder(res.Body).Decode(&spans); err != nil {
		t.Fatal(err)
	}
	if len(spans) != 3 {
		t.Fatalf("player-filtered trace: %d spans, want 3", len(spans))
	}
	for _, sp := range spans {
		if sp.Player != 1 {
			t.Fatalf("span for player %d leaked through the filter", sp.Player)
		}
	}

	res, err = srv.Client().Get(srv.URL + "/qoe?window=1000&player=0")
	if err != nil {
		t.Fatal(err)
	}
	defer res.Body.Close()
	var q QoESnapshot
	if err := json.NewDecoder(res.Body).Decode(&q); err != nil {
		t.Fatal(err)
	}
	if q.WindowMs != 1000 || q.BudgetMs != FrameBudgetMs {
		t.Fatalf("qoe config: %+v", q)
	}
	if len(q.Players) != 1 || q.Players[0].Player != 0 || q.Players[0].CacheHitRate != 1 {
		t.Fatalf("qoe players: %+v", q.Players)
	}

	for _, bad := range []string{"/trace?player=x", "/trace?player=-2", "/trace?n=0", "/qoe?window=0", "/qoe?budget=-1", "/qoe?player=x"} {
		res, err := srv.Client().Get(srv.URL + bad)
		if err != nil {
			t.Fatal(err)
		}
		res.Body.Close()
		if res.StatusCode != 400 {
			t.Errorf("%s -> %d, want 400", bad, res.StatusCode)
		}
	}
}

func TestPublishExpvarIdempotent(t *testing.T) {
	r := NewRegistry()
	r.PublishExpvar("coterie-test")
	r.PublishExpvar("coterie-test") // second call must not panic
	var nilReg *Registry
	nilReg.PublishExpvar("coterie-test-nil") // nil-safe
}

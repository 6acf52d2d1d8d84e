package sched

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"coterie/internal/obs"
)

// hold grabs the only slot of a 1-worker scheduler and returns a func
// that releases it.
func hold(t *testing.T, s *Scheduler) func() {
	t.Helper()
	if _, ok := s.Acquire(0); !ok {
		t.Fatal("could not acquire idle scheduler")
	}
	return func() { s.Release(0) }
}

// TestEDFOrder parks three waiters with distinct deadlines behind a
// held slot and asserts they are granted earliest-deadline-first, not
// in arrival order.
func TestEDFOrder(t *testing.T) {
	s := New(Config{Workers: 1})
	release := hold(t, s)

	now := NowMs()
	deadlines := []float64{now + 300, now + 100, now + 200} // arrival order ≠ EDF order
	var mu sync.Mutex
	var order []float64
	var wg sync.WaitGroup
	for _, dl := range deadlines {
		wg.Add(1)
		go func(dl float64) {
			defer wg.Done()
			if _, ok := s.Acquire(dl); !ok {
				t.Errorf("waiter %v shed unexpectedly", dl)
				return
			}
			mu.Lock()
			order = append(order, dl)
			mu.Unlock()
			s.Release(0)
		}(dl)
	}
	// Wait until all three are parked before releasing the slot, so the
	// heap — not goroutine scheduling — decides the order.
	waitFor(t, func() bool { return s.QueueDepth() == 3 })
	release()
	wg.Wait()

	want := []float64{now + 100, now + 200, now + 300}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("grant order %v, want %v", order, want)
		}
	}
}

// TestNoDeadlineSortsLast: a deadline-less waiter (prerender traffic)
// yields to any deadline waiter regardless of arrival order.
func TestNoDeadlineSortsLast(t *testing.T) {
	s := New(Config{Workers: 1})
	release := hold(t, s)

	var order []string
	var mu sync.Mutex
	var wg sync.WaitGroup
	start := func(name string, dl float64) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s.Acquire(dl)
			mu.Lock()
			order = append(order, name)
			mu.Unlock()
			s.Release(0)
		}()
	}
	start("prerender", 0)
	waitFor(t, func() bool { return s.QueueDepth() == 1 })
	start("deadline", NowMs()+100)
	waitFor(t, func() bool { return s.QueueDepth() == 2 })
	release()
	wg.Wait()

	if order[0] != "deadline" || order[1] != "prerender" {
		t.Fatalf("grant order %v, want [deadline prerender]", order)
	}
}

// TestShedAtMaxQueue: with the slot held and the queue full, Acquire
// sheds immediately and counts it; after release, admitted waiters
// drain normally.
func TestShedAtMaxQueue(t *testing.T) {
	s := New(Config{Workers: 1, MaxQueue: 2})
	reg := obs.NewRegistry()
	s.Instrument(reg, "sched")
	release := hold(t, s)

	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, ok := s.Acquire(0); ok {
				s.Release(0)
			}
		}()
	}
	waitFor(t, func() bool { return s.QueueDepth() == 2 })

	done := make(chan bool, 1)
	go func() {
		_, ok := s.Acquire(0)
		if ok {
			s.Release(0)
		}
		done <- ok
	}()
	select {
	case ok := <-done:
		if ok {
			t.Fatal("third waiter admitted past MaxQueue=2")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("shed Acquire blocked instead of returning")
	}
	if got := reg.Snapshot().Counters["sched.sheds"]; got != 1 {
		t.Fatalf("sheds counter = %d, want 1", got)
	}

	release()
	wg.Wait()
}

// TestAtRisk pins the projection maths with a fixed cost EWMA.
func TestAtRisk(t *testing.T) {
	s := New(Config{Workers: 1, CostMs: 50})

	now := NowMs()
	// Idle scheduler: one render (50 ms) against a 500 ms budget is safe...
	if s.AtRisk(now, now+500) {
		t.Error("generous deadline flagged at risk on idle scheduler")
	}
	// ...and a 10 ms budget is not.
	if !s.AtRisk(now, now+10) {
		t.Error("sub-cost deadline not flagged at risk")
	}
	if s.AtRisk(now, 0) {
		t.Error("deadline-less request flagged at risk")
	}

	// Queue depth inflates the projection: with the slot held and two
	// waiters parked, even a 2×cost budget is at risk.
	release := hold(t, s)
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s.Acquire(0)
			s.Release(0)
		}()
	}
	waitFor(t, func() bool { return s.QueueDepth() == 2 })
	now = NowMs()
	if !s.AtRisk(now, now+100) {
		t.Error("2×cost budget not at risk behind 3 queued renders")
	}
	release()
	wg.Wait()
}

// TestObserveCostEWMA: the costs Release observes move the estimate
// toward the sample, seeded from Config.CostMs.
func TestObserveCostEWMA(t *testing.T) {
	s := New(Config{Workers: 1, CostMs: 10})
	render := func(costMs float64) {
		if _, ok := s.Acquire(0); !ok {
			t.Fatal("idle scheduler refused a slot")
		}
		s.Release(costMs)
	}
	for i := 0; i < 50; i++ {
		render(20)
	}
	if c := s.CostMs(); c < 19 || c > 20 {
		t.Fatalf("EWMA %.2f after 50×20ms observations, want ≈20", c)
	}
	render(0) // ignored
	render(-5)
	if c := s.CostMs(); c < 19 {
		t.Fatalf("non-positive observations moved the EWMA: %.2f", c)
	}
}

func TestObserveFetchCostEWMA(t *testing.T) {
	s := New(Config{Workers: 1})
	if c := s.FetchCostMs(); c != DefaultFetchCostMs {
		t.Fatalf("fetch EWMA seed %.2f, want %v", c, DefaultFetchCostMs)
	}
	for i := 0; i < 50; i++ {
		s.ObserveFetchCost(8)
	}
	if c := s.FetchCostMs(); c < 7.5 || c > 8 {
		t.Fatalf("fetch EWMA %.2f after 50×8ms observations, want ≈8", c)
	}
	s.ObserveFetchCost(0) // ignored
	s.ObserveFetchCost(-1)
	if c := s.FetchCostMs(); c < 7.5 {
		t.Fatalf("non-positive observations moved the fetch EWMA: %.2f", c)
	}
	// The two EWMAs are independent: fetch observations must not move
	// the render-cost estimate.
	if c := s.CostMs(); c != DefaultCostMs {
		t.Fatalf("fetch observations moved the render EWMA: %.2f", c)
	}
}

func TestFetchAtRisk(t *testing.T) {
	s := New(Config{Workers: 1})
	for i := 0; i < 50; i++ {
		s.ObserveFetchCost(10)
	}
	now := NowMs()
	if s.FetchAtRisk(now, 0) {
		t.Error("deadline-less request reported at risk")
	}
	if s.FetchAtRisk(now, now+100) {
		t.Error("ample deadline reported at risk for a ~10ms hop")
	}
	if !s.FetchAtRisk(now, now+1) {
		t.Error("1ms budget not at risk for a ~10ms hop")
	}
}

// TestConcurrentChurn hammers Acquire/Release from many goroutines
// (run under -race) and checks slot accounting ends balanced.
func TestConcurrentChurn(t *testing.T) {
	s := New(Config{Workers: 3, MaxQueue: 8})
	reg := obs.NewRegistry()
	s.Instrument(reg, "sched")
	var wg sync.WaitGroup
	var served, shed atomic.Int64
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				dl := float64(0)
				if i%2 == 0 {
					dl = NowMs() + float64(i%7)
				}
				if _, ok := s.Acquire(dl); ok {
					served.Add(1)
					s.Release(float64(i % 3))
				} else {
					shed.Add(1)
				}
			}
		}(g)
	}
	wg.Wait()
	if s.QueueDepth() != 0 {
		t.Fatalf("queue not drained: %d", s.QueueDepth())
	}
	if got := served.Load() + shed.Load(); got != 16*200 {
		t.Fatalf("accounting: served %d + shed %d != %d", served.Load(), shed.Load(), 16*200)
	}
	if got := reg.Snapshot().Counters["sched.sheds"]; got != shed.Load() {
		t.Fatalf("sheds counter %d, callers saw %d", got, shed.Load())
	}
	// All slots free again: three holds must succeed without queueing.
	for i := 0; i < 3; i++ {
		if _, ok := s.Acquire(0); !ok {
			t.Fatal("slot leaked")
		}
	}
}

func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatal("condition not reached in time")
}

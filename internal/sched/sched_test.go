package sched

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"coterie/internal/obs"
)

// hold takes every slot of s (one per schedulable core) and returns a
// func that releases one of them per call. Releasing a single slot makes
// the parked waiters run one after another, each handing the slot on when
// it releases, so the heap decides the grant order, not a race between
// several freed slots.
func hold(t *testing.T, s *Scheduler) (releaseOne func()) {
	t.Helper()
	for i := 0; i < s.workers; i++ {
		if _, ok := s.Acquire(0); !ok {
			t.Fatal("could not acquire idle scheduler")
		}
	}
	return func() { s.Release(0) }
}

// TestEDFOrder parks three waiters with distinct deadlines, one after
// another, behind the held slots and asserts they are granted
// earliest-deadline-first, not in arrival order.
func TestEDFOrder(t *testing.T) {
	s := New(Config{})
	release := hold(t, s)

	now := NowMs()
	deadlines := []float64{now + 300, now + 100, now + 200} // arrival order ≠ EDF order
	var mu sync.Mutex
	var order []float64
	var wg sync.WaitGroup
	for i, dl := range deadlines {
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
		// Park each waiter before starting the next, so arrival order is
		// the order of deadlines above.
		waitFor(t, func() bool { return s.QueueDepth() == i+1 })
	}
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
	s := New(Config{})
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

// TestShedAtMaxQueue: with every slot held and DefaultMaxQueue waiters
// parked, Acquire sheds immediately and counts it; after release,
// admitted waiters drain normally. The waiters are goroutines blocked on
// a channel, not threads.
func TestShedAtMaxQueue(t *testing.T) {
	s := New(Config{})
	reg := obs.NewRegistry()
	s.Instrument(reg, "sched")
	release := hold(t, s)

	var wg sync.WaitGroup
	for i := 0; i < DefaultMaxQueue; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, ok := s.Acquire(0); ok {
				s.Release(0)
			}
		}()
	}
	waitFor(t, func() bool { return s.QueueDepth() == DefaultMaxQueue })

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
			t.Fatalf("waiter admitted past DefaultMaxQueue=%d", DefaultMaxQueue)
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

// TestAtRisk pins the projection maths against the seed cost
// DefaultCostMs, which no Release has moved yet.
func TestAtRisk(t *testing.T) {
	s := New(Config{})

	now := NowMs()
	// Idle scheduler: one render (DefaultCostMs) against a 500 ms budget
	// is safe...
	if s.AtRisk(now, now+500) {
		t.Error("generous deadline flagged at risk on idle scheduler")
	}
	// ...and half of it is not.
	if !s.AtRisk(now, now+DefaultCostMs/2) {
		t.Error("sub-cost deadline not flagged at risk")
	}
	if s.AtRisk(now, 0) {
		t.Error("deadline-less request flagged at risk")
	}

	// Queue depth inflates the projection: with every slot held and two
	// waiters parked, even a 2×cost budget is at risk (the projection is
	// (1 + 2/slots + 1) × cost).
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
	if !s.AtRisk(now, now+2*DefaultCostMs) {
		t.Error("2×cost budget not at risk behind every slot and 2 queued renders")
	}
	release()
	wg.Wait()
}

// TestObserveCostEWMA: the costs Release observes move the estimate
// toward the sample, seeded from DefaultCostMs.
func TestObserveCostEWMA(t *testing.T) {
	s := New(Config{})
	if c := s.CostMs(); c != DefaultCostMs {
		t.Fatalf("render EWMA seed %.2f, want %v", c, DefaultCostMs)
	}
	render := func(costMs float64) {
		if _, ok := s.Acquire(0); !ok {
			t.Fatal("idle scheduler refused a slot")
		}
		s.Release(costMs)
	}
	for i := 0; i < 50; i++ {
		render(2 * DefaultCostMs)
	}
	if c := s.CostMs(); c < 2*DefaultCostMs-1 || c > 2*DefaultCostMs {
		t.Fatalf("EWMA %.2f after 50×%dms observations, want ≈%d", c, 2*DefaultCostMs, 2*DefaultCostMs)
	}
	render(0) // ignored
	render(-5)
	if c := s.CostMs(); c < 2*DefaultCostMs-1 {
		t.Fatalf("non-positive observations moved the EWMA: %.2f", c)
	}
}

// TestConcurrentChurn hammers Acquire/Release from more goroutines than
// the queue admits (run under -race) and checks that every call is either
// served or shed, that the shed counter matches what callers saw, and that
// slot accounting ends balanced. Every slot is held until the queue is
// full and a caller has been shed, so sheds interleave with grants once
// the slots are released.
func TestConcurrentChurn(t *testing.T) {
	const goroutines, rounds = DefaultMaxQueue + 16, 200
	s := New(Config{})
	reg := obs.NewRegistry()
	s.Instrument(reg, "sched")
	release := hold(t, s)
	var wg sync.WaitGroup
	var served, shed atomic.Int64
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
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
	// At most DefaultMaxQueue callers can park behind the held slots, so
	// the other 16 must shed.
	waitFor(t, func() bool { return s.QueueDepth() == DefaultMaxQueue && shed.Load() > 0 })
	for i := 0; i < s.workers; i++ {
		release()
	}
	wg.Wait()
	if s.QueueDepth() != 0 {
		t.Fatalf("queue not drained: %d", s.QueueDepth())
	}
	if shed.Load() == 0 {
		t.Fatal("no caller shed past a full queue")
	}
	if got := served.Load() + shed.Load(); got != goroutines*rounds {
		t.Fatalf("accounting: served %d + shed %d != %d", served.Load(), shed.Load(), goroutines*rounds)
	}
	if got := reg.Snapshot().Counters["sched.sheds"]; got != shed.Load() {
		t.Fatalf("sheds counter %d, callers saw %d", got, shed.Load())
	}
	// All slots free again.
	s.mu.Lock()
	running := s.running
	s.mu.Unlock()
	if running != 0 {
		t.Fatalf("%d slots leaked", running)
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

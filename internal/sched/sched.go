// Package sched is the server's deadline-aware render scheduler: an
// EDF (earliest-deadline-first) admission gate in front of the render
// path. Render leaders Acquire a slot before touching the renderer and
// Release it after; at most one slot per schedulable core runs at a time
// (the concurrency knee — past it, added concurrency only inflates every
// request's latency on a fixed core budget), and waiters are granted
// slots in deadline order rather than arrival order, so a request whose
// vsync is imminent overtakes prerender and deadline-less traffic.
//
// Admission control bounds the queue: once DefaultMaxQueue waiters are
// parked, Acquire sheds (returns ok=false without blocking) and the
// caller degrades or rejects instead of joining a queue it cannot clear
// in time. The scheduler also keeps an EWMA of the full-render cost so
// callers can ask, before committing to a render, whether a deadline is
// already at risk (AtRisk) — the trigger for the server's quality
// degrade ladder.
//
// The scheduler owns no goroutines: a releasing slot hands directly to
// the minimum-deadline waiter, so an idle scheduler costs one mutex.
package sched

import (
	"container/heap"
	"math"
	"runtime"
	"sync"
	"time"

	"coterie/internal/obs"
)

// Config has no fields: the knee is one slot per schedulable core
// (GOMAXPROCS when New runs), the queue bound DefaultMaxQueue and the cost
// seed DefaultCostMs. It stays because callers outside this module
// construct a scheduler with New(Config{}).
type Config struct{}

const (
	// DefaultMaxQueue bounds the EDF queue. At ~10 ms per queued render
	// on one core, a full queue already represents multiple seconds of
	// backlog — far past any vsync deadline — so a larger bound would
	// only delay the inevitable shed.
	DefaultMaxQueue = 256
	// DefaultCostMs seeds the render-cost EWMA before any observation
	// (roughly one 256×128 panorama + encode on the reference core).
	DefaultCostMs = 10
	// costEWMAWeight is the weight of a new observation in the cost
	// EWMA; renders are frequent, so a light weight smooths scene- and
	// resolution-dependent jitter without lagging load shifts.
	costEWMAWeight = 0.2
)

// Scheduler is an EDF slot gate. The zero value is not usable; call New.
type Scheduler struct {
	mu      sync.Mutex
	workers int // the knee: GOMAXPROCS at New
	running int
	waiters waiterHeap
	seq     uint64
	costMs  float64

	sheds *obs.Counter
	depth *obs.Gauge
	wait  *obs.Histogram
}

type waiter struct {
	deadline float64 // absolute wall ms; +Inf when the request has none
	seq      uint64  // FIFO tie-break among equal deadlines
	ready    chan struct{}
	idx      int
}

type waiterHeap []*waiter

func (h waiterHeap) Len() int { return len(h) }
func (h waiterHeap) Less(i, j int) bool {
	if h[i].deadline != h[j].deadline {
		return h[i].deadline < h[j].deadline
	}
	return h[i].seq < h[j].seq
}
func (h waiterHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].idx, h[j].idx = i, j
}
func (h *waiterHeap) Push(x any) {
	w := x.(*waiter)
	w.idx = len(*h)
	*h = append(*h, w)
}
func (h *waiterHeap) Pop() any {
	old := *h
	n := len(old)
	w := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return w
}

// New creates a scheduler with one render slot per schedulable core.
func New(Config) *Scheduler {
	return &Scheduler{workers: runtime.GOMAXPROCS(0), costMs: DefaultCostMs}
}

// Instrument resolves the scheduler's instruments from r under the given
// name prefix (e.g. "server.sched"): <prefix>.sheds counts rejected
// admissions, <prefix>.queue_depth gauges parked waiters, and
// <prefix>.queue_wait_ms histograms slot waits.
func (s *Scheduler) Instrument(r *obs.Registry, prefix string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.sheds = r.Counter(prefix + ".sheds")
	s.depth = r.Gauge(prefix + ".queue_depth")
	s.wait = r.Histogram(prefix + ".queue_wait_ms")
}

// QueueDepth returns the number of parked waiters.
func (s *Scheduler) QueueDepth() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.waiters.Len()
}

// CostMs returns the current full-render cost estimate.
func (s *Scheduler) CostMs() float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.costMs
}

// AtRisk reports whether a request due at deadlineMs (absolute wall ms;
// <=0 means no deadline) is unlikely to be served by a full render in
// time: the work already admitted, spread over the knee, plus the
// request's own render is projected past the deadline. Callers use this
// before committing to the render path — a true return is the cue to
// serve a degraded-but-SSIM-bounded frame instead.
func (s *Scheduler) AtRisk(nowMs, deadlineMs float64) bool {
	if deadlineMs <= 0 {
		return false
	}
	s.mu.Lock()
	ahead := float64(s.waiters.Len()+s.running) / float64(s.workers)
	eta := nowMs + (ahead+1)*s.costMs
	s.mu.Unlock()
	return eta > deadlineMs
}

// Acquire blocks until a render slot is granted (in EDF order among
// waiters) and returns how long the caller waited for it, or sheds
// immediately (ok=false, no slot held) when the queue is at its
// admission bound. deadlineMs is the request's absolute wall-clock
// deadline in ms; <=0 means none — such requests sort after all deadline
// traffic. Every ok=true return must be paired with Release.
func (s *Scheduler) Acquire(deadlineMs float64) (queueMs float64, ok bool) {
	dl := deadlineMs
	if dl <= 0 {
		dl = math.Inf(1)
	}
	s.mu.Lock()
	if s.running < s.workers && s.waiters.Len() == 0 {
		s.running++
		s.mu.Unlock()
		return 0, true
	}
	if s.waiters.Len() >= DefaultMaxQueue {
		s.mu.Unlock()
		s.sheds.Inc()
		return 0, false
	}
	s.seq++
	w := &waiter{deadline: dl, seq: s.seq, ready: make(chan struct{})}
	heap.Push(&s.waiters, w)
	s.depth.Set(int64(s.waiters.Len()))
	s.mu.Unlock()

	start := time.Now()
	<-w.ready
	queueMs = float64(time.Since(start)) / float64(time.Millisecond)
	s.wait.Observe(queueMs)
	return queueMs, true
}

// Release returns a slot. costMs, when >0, is the measured cost of the
// render+encode the slot performed and feeds the cost EWMA (pass 0 for
// failed work, which is not representative). The slot hands directly to
// the minimum-deadline waiter, if any.
func (s *Scheduler) Release(costMs float64) {
	s.mu.Lock()
	if costMs > 0 {
		s.costMs += costEWMAWeight * (costMs - s.costMs)
	}
	if s.waiters.Len() > 0 {
		w := heap.Pop(&s.waiters).(*waiter)
		s.depth.Set(int64(s.waiters.Len()))
		close(w.ready) // slot transfers: running count unchanged
	} else {
		s.running--
	}
	s.mu.Unlock()
}

// NowMs is the clock deadlines are expressed in: this process's wall
// clock, Unix milliseconds as float. A deadline is always on the clock of
// the process that enforces it — the server sets it to its own receive
// time plus the budget the request carries — so no reading of NowMs ever
// crosses the wire or is compared with another host's.
func NowMs() float64 { return float64(time.Now().UnixNano()) / 1e6 }

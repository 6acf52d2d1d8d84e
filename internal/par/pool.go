package par

import (
	"sync"
	"sync/atomic"
)

// Job is one fan-out unit for a Pool: Run is called once for every index
// in [0, n), from whichever worker claims the index. Implementations must
// tolerate concurrent Run calls for distinct indices.
//
// Job is an interface rather than a closure so hot-path callers can pool
// the job value: submitting a *T through an interface does not allocate,
// whereas a fresh closure per call does.
type Job interface {
	Run(i int)
}

// Pool is a reusable fixed-size worker pool for latency-sensitive fan-out
// (the per-frame render path), where For's spawn-per-call goroutines and
// closure allocations are measurable. Workers start lazily on the first
// parallel Run and persist until Close; Run itself is allocation-free at
// steady state.
//
// Run may be called from many goroutines at once, and the policy is
// parallelism across calls first: every caller works its own call, and a
// call fans out only into idle capacity. Run queues helpers for the
// workers the calls in flight leave free (size − calls in flight), and a
// helper stops claiming indices once as many calls are in flight as the
// pool has workers, leaving the rest of that call to its caller. So one
// call on an idle pool spreads across every worker, while as many
// concurrent calls as workers each run whole on their own goroutine
// instead of splitting every call across every core. Submission never
// blocks, and a Run whose indices are all claimed waits only for helpers
// still running one of them, never for a helper that has not started.
type Pool struct {
	workers int
	tickets chan *poolCall
	closed  chan struct{}

	// inFlight counts the parallel Runs that have not returned.
	inFlight atomic.Int64

	startOnce sync.Once
	closeOnce sync.Once

	// free is an explicit freelist (not sync.Pool) so steady-state Run stays
	// allocation-free even across GC cycles — the render allocation-budget
	// test depends on that determinism.
	mu   sync.Mutex
	free []*poolCall
}

// callClosed marks, in poolCall.state, a call whose caller has claimed
// its last index: no helper may join it any more.
const callClosed = 1 << 62

// poolCall is the shared state of one Run: workers and the caller claim
// indices from next until n is exhausted.
type poolCall struct {
	job  Job
	n    int64
	next atomic.Int64
	// state is callClosed or'ed with the number of helpers inside the call.
	// A ticket can outlive its Run, and even reach this state after a later
	// Run has recycled it. A helper joins only an open call: a closed one
	// drops the ticket, an open one — whatever Run it now serves, its
	// fields all written before it was opened — gets the help.
	state atomic.Int64
	// left receives one token when the last helper leaves a closed call.
	left chan struct{}
}

// runNext claims and runs one index; false once every index is claimed.
func (c *poolCall) runNext() bool {
	i := c.next.Add(1) - 1
	if i >= c.n {
		return false
	}
	c.job.Run(int(i))
	return true
}

// NewPool creates a pool with the given number of workers (resolved via
// Workers; n <= 0 means GOMAXPROCS). A pool of one worker runs everything
// inline and owns no goroutines. A nil *Pool is valid and also runs inline.
func NewPool(workers int) *Pool {
	w := Workers(workers)
	p := &Pool{workers: w}
	if w > 1 {
		// Capacity bounds stale tickets under heavy concurrent Run load;
		// submission falls back to inline work when full.
		p.tickets = make(chan *poolCall, w*4)
		p.closed = make(chan struct{})
	}
	return p
}

// Size returns the worker count the pool resolves work across (1 for a nil
// pool).
func (p *Pool) Size() int {
	if p == nil {
		return 1
	}
	return p.workers
}

// Run executes job.Run(i) for every i in [0, n) and returns when all calls
// have finished. The caller's goroutine works the call from start to end,
// and helpers join it only while the pool has idle workers (see Pool), so
// a Run on a busy pool degrades to inline execution rather than queueing
// behind other calls. With one worker (or a nil pool) the calls run inline
// in index order — the deterministic sequential path.
func (p *Pool) Run(n int, job Job) {
	if n <= 0 {
		return
	}
	if p == nil || p.workers <= 1 || n == 1 {
		for i := 0; i < n; i++ {
			job.Run(i)
		}
		return
	}
	p.startOnce.Do(p.start)
	inFlight := p.inFlight.Add(1)
	defer p.inFlight.Add(-1)

	c := p.getCall()
	c.job = job
	c.n = int64(n)
	c.next.Store(0)
	c.state.Store(0) // open: publishes the fields above to joining helpers

	helpers := min(int64(p.workers)-inFlight, int64(n-1))
	for i := int64(0); i < helpers; i++ {
		select {
		case p.tickets <- c:
		default:
			// The queue is full of tickets for busy workers; the caller
			// absorbs this helper's share.
		}
	}
	for c.runNext() {
	}
	if c.state.Add(callClosed) != callClosed {
		<-c.left // a helper is still running an index it claimed
	}

	c.job = nil
	p.putCall(c)
}

// help works c for a worker until every index is claimed or the pool has
// no idle capacity left for c: then as many calls are in flight as there
// are workers, and each caller runs the rest of its own call.
func (p *Pool) help(c *poolCall, workers int64) {
	for {
		s := c.state.Load()
		if s&callClosed != 0 {
			return // stale ticket: the call it was queued for is over
		}
		if c.state.CompareAndSwap(s, s+1) {
			break
		}
	}
	for p.inFlight.Load() < workers && c.runNext() {
	}
	if c.state.Add(-1) == callClosed {
		c.left <- struct{}{}
	}
}

// Close stops the pool's workers. It must not be called concurrently with
// Run; after Close, Run executes everything inline. Close on a nil or
// never-started pool is a no-op.
func (p *Pool) Close() {
	if p == nil || p.closed == nil {
		return
	}
	p.closeOnce.Do(func() {
		p.workers = 1 // subsequent Runs go inline
		close(p.closed)
	})
}

func (p *Pool) start() {
	for i := 0; i < p.workers-1; i++ {
		go p.worker(int64(p.workers)) // Close rewrites p.workers
	}
}

func (p *Pool) worker(workers int64) {
	for {
		select {
		case c := <-p.tickets:
			p.help(c, workers)
		case <-p.closed:
			return
		}
	}
}

func (p *Pool) getCall() *poolCall {
	p.mu.Lock()
	defer p.mu.Unlock()
	if n := len(p.free); n > 0 {
		c := p.free[n-1]
		p.free = p.free[:n-1]
		return c
	}
	return &poolCall{left: make(chan struct{}, 1)}
}

func (p *Pool) putCall(c *poolCall) {
	p.mu.Lock()
	p.free = append(p.free, c)
	p.mu.Unlock()
}

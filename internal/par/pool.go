package par

import (
	"sync"
	"sync/atomic"
)

// Job is one fan-out unit for Run: Run is called once for every index in
// [0, n), from whichever worker claims the index. Implementations must
// tolerate concurrent Run calls for distinct indices.
//
// Job is an interface rather than a closure so hot-path callers can pool
// the job value: submitting a *T through an interface does not allocate,
// whereas a fresh closure per call does.
type Job interface {
	Run(i int)
}

// Run executes job.Run(i) for every i in [0, n) on the process's render
// pool and returns when all calls have finished. There is one pool per
// process, sized to GOMAXPROCS and rebuilt when GOMAXPROCS has changed
// since it was built, so every renderer — and every game's renderer — fans
// out into the same cores and the idle-only policy (see pool) counts the
// renders of all of them. The caller's goroutine works its own call from
// start to end; with one worker the calls run inline in index order.
//
// Run is allocation-free at steady state. A job that calls Run from inside
// a Run would count as a second call in flight and stop the outer call's
// helpers; nested fan-out belongs to For.
func Run(n int, job Job) { shared().run(n, job) }

// current is the process's pool; rebuild guards its replacement.
var (
	current atomic.Pointer[pool]
	rebuild sync.Mutex
)

// shared returns the process's pool, building a new one (and stopping the
// old one) when GOMAXPROCS differs from the width it was built for.
func shared() *pool {
	w := Workers()
	if p := current.Load(); p != nil && p.workers == w {
		return p
	}
	rebuild.Lock()
	defer rebuild.Unlock()
	p := current.Load()
	if p == nil || p.workers != w {
		old := p
		p = newPool(w)
		current.Store(p)
		old.stop()
	}
	return p
}

// pool is a reusable fixed-size worker pool for latency-sensitive fan-out
// (the per-frame render path), where For's spawn-per-call goroutines and
// closure allocations are measurable. Workers start lazily on the first
// parallel run and persist until stop; run itself is allocation-free at
// steady state.
//
// run may be called from many goroutines at once, and the policy is
// parallelism across calls first: every caller works its own call, and a
// call fans out only into idle capacity. run queues helpers for the
// workers the calls in flight leave free (size − calls in flight), and a
// helper stops claiming indices once as many calls are in flight as the
// pool has workers, leaving the rest of that call to its caller. So one
// call on an idle pool spreads across every worker, while as many
// concurrent calls as workers each run whole on their own goroutine
// instead of splitting every call across every core. Submission never
// blocks, and a run whose indices are all claimed waits only for helpers
// still running one of them, never for a helper that has not started.
type pool struct {
	workers int
	tickets chan *poolCall
	stopped chan struct{}

	// inFlight counts the parallel runs that have not returned.
	inFlight atomic.Int64

	startOnce sync.Once
	stopOnce  sync.Once

	// free is an explicit freelist (not sync.Pool) so steady-state run stays
	// allocation-free even across GC cycles — the render allocation-budget
	// test depends on that determinism.
	mu   sync.Mutex
	free []*poolCall
}

// callClosed marks, in poolCall.state, a call whose caller has claimed
// its last index: no helper may join it any more.
const callClosed = 1 << 62

// poolCall is the shared state of one run: workers and the caller claim
// indices from next until n is exhausted.
type poolCall struct {
	job  Job
	n    int64
	next atomic.Int64
	// state is callClosed or'ed with the number of helpers inside the call.
	// A ticket can outlive its run, and even reach this state after a later
	// run has recycled it. A helper joins only an open call: a closed one
	// drops the ticket, an open one — whatever run it now serves, its
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

// newPool creates a pool of the given number of workers, counting the
// caller of each run as one of them. A pool of one worker runs everything
// inline and owns no goroutines.
func newPool(workers int) *pool {
	p := &pool{workers: workers}
	if p.workers > 1 {
		// Capacity bounds stale tickets under heavy concurrent run load;
		// submission falls back to inline work when full.
		p.tickets = make(chan *poolCall, p.workers*4)
		p.stopped = make(chan struct{})
	}
	return p
}

// run executes job.Run(i) for every i in [0, n) and returns when all calls
// have finished. The caller's goroutine works the call from start to end,
// and helpers join it only while the pool has idle workers (see pool), so
// a run on a busy pool degrades to inline execution rather than queueing
// behind other calls. With one worker the calls run inline in index order
// — the deterministic sequential path.
func (p *pool) run(n int, job Job) {
	if n <= 0 {
		return
	}
	if p.workers <= 1 || n == 1 {
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
func (p *pool) help(c *poolCall) {
	for {
		s := c.state.Load()
		if s&callClosed != 0 {
			return // stale ticket: the call it was queued for is over
		}
		if c.state.CompareAndSwap(s, s+1) {
			break
		}
	}
	for p.inFlight.Load() < int64(p.workers) && c.runNext() {
	}
	if c.state.Add(-1) == callClosed {
		c.left <- struct{}{}
	}
}

// stop ends the pool's workers once they finish what they are helping
// with. It may race runs: a run in flight, or one that starts later, is
// worked to the end by its caller, which never waits for a helper that
// has not started. stop on a pool of one worker is a no-op.
func (p *pool) stop() {
	if p == nil || p.stopped == nil {
		return
	}
	p.stopOnce.Do(func() { close(p.stopped) })
}

func (p *pool) start() {
	for i := 0; i < p.workers-1; i++ {
		go p.worker()
	}
}

func (p *pool) worker() {
	for {
		select {
		case c := <-p.tickets:
			p.help(c)
		case <-p.stopped:
			return
		}
	}
}

func (p *pool) getCall() *poolCall {
	p.mu.Lock()
	defer p.mu.Unlock()
	if n := len(p.free); n > 0 {
		c := p.free[n-1]
		p.free = p.free[:n-1]
		return c
	}
	return &poolCall{left: make(chan struct{}, 1)}
}

func (p *pool) putCall(c *poolCall) {
	p.mu.Lock()
	p.free = append(p.free, c)
	p.mu.Unlock()
}

package par

import (
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// fillJob writes i*i into slot i — the determinism contract: output
// identical for any worker count.
type fillJob struct {
	out []int64
}

func (j *fillJob) Run(i int) { j.out[i] = int64(i) * int64(i) }

// countJob counts invocations per index, to catch double execution.
type countJob struct {
	counts []atomic.Int64
}

func (j *countJob) Run(i int) { j.counts[i].Add(1) }

func TestPoolMatchesInline(t *testing.T) {
	for _, workers := range []int{1, 2, 4, 9} {
		for _, n := range []int{0, 1, 3, 17, 128} {
			p := NewPool(workers)
			got := &fillJob{out: make([]int64, n)}
			p.Run(n, got)
			for i := 0; i < n; i++ {
				if got.out[i] != int64(i)*int64(i) {
					t.Fatalf("workers=%d n=%d: slot %d = %d", workers, n, i, got.out[i])
				}
			}
			p.Close()
		}
	}
}

func TestPoolRunsEachIndexOnce(t *testing.T) {
	p := NewPool(4)
	defer p.Close()
	const n = 257
	for round := 0; round < 20; round++ {
		j := &countJob{counts: make([]atomic.Int64, n)}
		p.Run(n, j)
		for i := range j.counts {
			if c := j.counts[i].Load(); c != 1 {
				t.Fatalf("round %d: index %d ran %d times", round, i, c)
			}
		}
	}
}

func TestPoolConcurrentRuns(t *testing.T) {
	// Many goroutines share one pool; every call must complete with every
	// index executed exactly once, even when submissions outnumber workers
	// and callers fall back to inline execution.
	p := NewPool(3)
	defer p.Close()
	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for round := 0; round < 10; round++ {
				j := &countJob{counts: make([]atomic.Int64, 64)}
				p.Run(64, j)
				for i := range j.counts {
					if c := j.counts[i].Load(); c != 1 {
						t.Errorf("index %d ran %d times", i, c)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
}

func TestPoolNilAndClosed(t *testing.T) {
	var p *Pool
	j := &fillJob{out: make([]int64, 8)}
	p.Run(8, j) // nil pool runs inline
	if j.out[7] != 49 {
		t.Fatal("nil pool did not run inline")
	}
	p.Close() // no-op

	q := NewPool(4)
	q.Run(8, &fillJob{out: make([]int64, 8)})
	q.Close()
	q.Close() // idempotent
	after := &fillJob{out: make([]int64, 8)}
	q.Run(8, after) // post-Close falls back to inline
	if after.out[5] != 25 {
		t.Fatal("closed pool did not run inline")
	}
}

// gateJob holds its first `held` indices until release is closed, each
// announcing itself on entered first, and counts the indices a pool worker
// ran for the call (the rest ran on the caller's goroutine).
type gateJob struct {
	held     int
	entered  chan struct{}
	release  chan struct{}
	byHelper atomic.Int64
}

func newGateJob(held int) *gateJob {
	return &gateJob{held: held, entered: make(chan struct{}, held), release: make(chan struct{})}
}

func (j *gateJob) Run(i int) {
	if onPoolWorker() {
		j.byHelper.Add(1)
	}
	if i < j.held {
		j.entered <- struct{}{}
		<-j.release
		return
	}
	runtime.Gosched() // give any other goroutine on the call a chance to claim
}

// waitEntered returns once all of j's held indices are running.
func (j *gateJob) waitEntered() {
	for i := 0; i < j.held; i++ {
		<-j.entered
	}
}

// onPoolWorker reports whether the calling goroutine is a pool worker
// helping a call, rather than the goroutine that called Run.
func onPoolWorker() bool {
	pc := make([]uintptr, 32)
	frames := runtime.CallersFrames(pc[:runtime.Callers(2, pc)])
	for {
		f, more := frames.Next()
		if strings.HasSuffix(f.Function, ".(*Pool).help") {
			return true
		}
		if !more {
			return false
		}
	}
}

// returnsWithin fails the test unless done is closed within a generous
// bound: a Run that is correct returns in microseconds.
func returnsWithin(t *testing.T, done <-chan struct{}, what string) {
	t.Helper()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatalf("%s did not return", what)
	}
}

func TestPoolRunDoesNotWaitForBusyWorker(t *testing.T) {
	// Call A holds every worker (and its own caller) inside a held index.
	// Call B then finds no idle worker: whatever helpers it queues wait
	// behind A, and B, whose own goroutine runs all of its indices, must
	// return without waiting for a helper that has not started.
	for _, workers := range []int{2, 3, 4} {
		p := NewPool(workers)
		a := newGateJob(workers)
		aDone := make(chan struct{})
		go func() {
			p.Run(workers, a)
			close(aDone)
		}()
		a.waitEntered()

		b := &countJob{counts: make([]atomic.Int64, 4)}
		bDone := make(chan struct{})
		go func() {
			p.Run(4, b)
			close(bDone)
		}()
		returnsWithin(t, bDone, "call B, behind busy workers,")
		for i := range b.counts {
			if c := b.counts[i].Load(); c != 1 {
				t.Fatalf("workers=%d: call B ran index %d %d times", workers, i, c)
			}
		}

		close(a.release)
		returnsWithin(t, aDone, "call A")
		// Any tickets B queued (workers > 2) reach the workers only now,
		// after B's call state was recycled: they must neither run an index
		// twice nor stall a Run.
		for round := 0; round < 20; round++ {
			j := &countJob{counts: make([]atomic.Int64, 33)}
			p.Run(33, j)
			for i := range j.counts {
				if c := j.counts[i].Load(); c != 1 {
					t.Fatalf("workers=%d round %d: index %d ran %d times", workers, round, i, c)
				}
			}
		}
		p.Close()
	}
}

func TestPoolHelpersYieldToNewCalls(t *testing.T) {
	// On a two-worker pool, call A fans out: its caller and the one worker
	// each hold an index. Call B then starts, so as many calls are in
	// flight as there are workers: once A's indices are released, the
	// worker finishes the index it holds and leaves the other 62 to A's
	// caller, and B, with no idle worker, queues no helper at all.
	p := NewPool(2)
	defer p.Close()
	a := newGateJob(2)
	aDone := make(chan struct{})
	go func() {
		p.Run(64, a)
		close(aDone)
	}()
	a.waitEntered()

	b := newGateJob(1)
	bDone := make(chan struct{})
	go func() {
		p.Run(2, b)
		close(bDone)
	}()
	b.waitEntered()

	close(a.release)
	returnsWithin(t, aDone, "call A")
	if got := a.byHelper.Load(); got != 1 {
		t.Errorf("worker ran %d of call A's indices after call B started, want only the 1 it held", got)
	}
	close(b.release)
	returnsWithin(t, bDone, "call B")
	if got := b.byHelper.Load(); got != 0 {
		t.Errorf("worker ran %d of call B's indices, want 0: no core was idle when B started", got)
	}
}

func TestPoolRunAllocationFree(t *testing.T) {
	// The render hot path depends on Run being allocation-free at steady
	// state: the call state is freelisted and jobs are submitted through an
	// interface, so only the first Run (worker spawn, freelist growth) may
	// allocate.
	p := NewPool(4)
	defer p.Close()
	j := &countJob{counts: make([]atomic.Int64, 32)}
	p.Run(32, j) // warm: spawn workers, seed freelist
	if allocs := testing.AllocsPerRun(50, func() {
		p.Run(32, j)
	}); allocs > 0 {
		t.Errorf("Pool.Run allocates %.1f times per op, budget 0", allocs)
	}
}

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
			p := newPool(workers)
			got := &fillJob{out: make([]int64, n)}
			p.run(n, got)
			for i := 0; i < n; i++ {
				if got.out[i] != int64(i)*int64(i) {
					t.Fatalf("workers=%d n=%d: slot %d = %d", workers, n, i, got.out[i])
				}
			}
			p.stop()
		}
	}
}

func TestPoolRunsEachIndexOnce(t *testing.T) {
	p := newPool(4)
	defer p.stop()
	const n = 257
	for round := 0; round < 20; round++ {
		j := &countJob{counts: make([]atomic.Int64, n)}
		p.run(n, j)
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
	p := newPool(3)
	defer p.stop()
	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for round := 0; round < 10; round++ {
				j := &countJob{counts: make([]atomic.Int64, 64)}
				p.run(64, j)
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

func TestPoolStopped(t *testing.T) {
	q := newPool(4)
	q.run(8, &fillJob{out: make([]int64, 8)})
	q.stop()
	q.stop() // idempotent
	after := &fillJob{out: make([]int64, 8)}
	q.run(8, after) // its caller works a run on a stopped pool to the end
	if after.out[5] != 25 {
		t.Fatal("stopped pool did not run the call")
	}
	newPool(1).stop() // no workers: a no-op
}

// TestRunFollowsGOMAXPROCS checks the process pool's one input: Run fans
// out across GOMAXPROCS workers, and a change of GOMAXPROCS replaces the
// pool and ends the old one's workers.
func TestRunFollowsGOMAXPROCS(t *testing.T) {
	setProcs(t, 3)
	j := &countJob{counts: make([]atomic.Int64, 64)}
	Run(64, j)
	p3 := current.Load()
	if p3.workers != 3 {
		t.Fatalf("GOMAXPROCS 3: pool of %d workers", p3.workers)
	}
	Run(64, j)
	if current.Load() != p3 {
		t.Fatal("unchanged GOMAXPROCS rebuilt the pool")
	}
	base := runtime.NumGoroutine()
	setProcs(t, 2)
	Run(64, j)
	if p := current.Load(); p == p3 || p.workers != 2 {
		t.Fatalf("GOMAXPROCS 2: pool of %d workers, rebuilt %v", p.workers, p != p3)
	}
	for i := range j.counts {
		if c := j.counts[i].Load(); c != 3 {
			t.Fatalf("index %d ran %d times in three runs", i, c)
		}
	}
	// The old pool's two workers exit; the new one started one.
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base-2+1 {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines, want at most %d: the replaced pool's workers did not exit", runtime.NumGoroutine(), base-1)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestRunAcrossRebuilds runs calls from several goroutines while
// GOMAXPROCS keeps changing, so calls land on pools being replaced and
// stopped under them: every call must still run each index exactly once.
func TestRunAcrossRebuilds(t *testing.T) {
	setProcs(t, 2)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for round := 0; round < 50; round++ {
				j := &countJob{counts: make([]atomic.Int64, 16)}
				Run(16, j)
				for i := range j.counts {
					if c := j.counts[i].Load(); c != 1 {
						t.Errorf("index %d ran %d times", i, c)
						return
					}
				}
			}
		}()
	}
	for i := 0; i < 20; i++ {
		runtime.GOMAXPROCS(2 + i%2)
		runtime.Gosched()
	}
	wg.Wait()
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
		if strings.HasSuffix(f.Function, ".(*pool).help") {
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
		p := newPool(workers)
		a := newGateJob(workers)
		aDone := make(chan struct{})
		go func() {
			p.run(workers, a)
			close(aDone)
		}()
		a.waitEntered()

		b := &countJob{counts: make([]atomic.Int64, 4)}
		bDone := make(chan struct{})
		go func() {
			p.run(4, b)
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
			p.run(33, j)
			for i := range j.counts {
				if c := j.counts[i].Load(); c != 1 {
					t.Fatalf("workers=%d round %d: index %d ran %d times", workers, round, i, c)
				}
			}
		}
		p.stop()
	}
}

func TestPoolHelpersYieldToNewCalls(t *testing.T) {
	// On a two-worker pool, call A fans out: its caller and the one worker
	// each hold an index. Call B then starts, so as many calls are in
	// flight as there are workers: once A's indices are released, the
	// worker finishes the index it holds and leaves the other 62 to A's
	// caller, and B, with no idle worker, queues no helper at all.
	p := newPool(2)
	defer p.stop()
	a := newGateJob(2)
	aDone := make(chan struct{})
	go func() {
		p.run(64, a)
		close(aDone)
	}()
	a.waitEntered()

	b := newGateJob(1)
	bDone := make(chan struct{})
	go func() {
		p.run(2, b)
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
	p := newPool(4)
	defer p.stop()
	j := &countJob{counts: make([]atomic.Int64, 32)}
	p.run(32, j) // warm: spawn workers, seed freelist
	if allocs := testing.AllocsPerRun(50, func() {
		p.run(32, j)
	}); allocs > 0 {
		t.Errorf("pool.run allocates %.1f times per op, budget 0", allocs)
	}
}

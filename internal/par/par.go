// Package par provides the small fan-out primitives used by the experiment
// pipeline (internal/eval, internal/cutoff), the offline preprocessing
// stages and the per-frame render path to parallelize independent units
// of work — trace positions, leaf regions, testbed sessions, column bands
// — while keeping output deterministic.
//
// GOMAXPROCS is the only width: every fan-out reads it when it starts, and
// nothing else sets how many goroutines work a call. Output never depends
// on it.
//
// The determinism contract: callers pass a closure that writes its result
// into index i of a preallocated slice (never append-from-goroutine), so the
// collected output is identical for any worker count. Work is handed out by
// an atomic counter, which balances uneven item costs (a quadtree leaf whose
// binary search converges late, a session with more players) better than
// static striping.
package par

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Workers returns the fan-out width: one worker per available CPU
// (GOMAXPROCS), read at call time.
func Workers() int { return runtime.GOMAXPROCS(0) }

// For runs fn(i) for every i in [0, n) across Workers() goroutines and
// returns when all calls have finished. With one worker the calls run
// inline on the caller's goroutine in index order.
//
// For spawns its goroutines per call, so calls nest freely: an item may
// itself call For (an experiment cell computing a cutoff map) at full
// width. The render pool (Run), which counts calls in flight, is the other
// mechanism and not meant for that.
func For(n int, fn func(i int)) {
	run(min(Workers(), n), n, func(_, i int) { fn(i) })
}

// ForWorker is For with per-worker scratch state (a world.Query) allocated
// once rather than once per item: before any worker starts, *scratch is
// grown with newScratch to one element per worker of this call, and worker
// w passes (*scratch)[w] with every item it runs. The caller keeps the
// slice, so later calls reuse it at any width.
func ForWorker[S any](n int, scratch *[]S, newScratch func() S, fn func(s S, i int)) {
	w := min(Workers(), n)
	for len(*scratch) < w {
		*scratch = append(*scratch, newScratch())
	}
	s := *scratch
	run(w, n, func(worker, i int) { fn(s[worker], i) })
}

// run runs fn(worker, i) for every i in [0, n) across w goroutines, passing
// each call its goroutine's index in [0, w).
func run(w, n int, fn func(worker, i int)) {
	if n <= 0 {
		return
	}
	if w <= 1 {
		for i := 0; i < n; i++ {
			fn(0, i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(w)
	for wi := 0; wi < w; wi++ {
		go func(worker int) {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				fn(worker, i)
			}
		}(wi)
	}
	wg.Wait()
}

// ForErr runs fn(i) for every i in [0, n) and returns the error of the
// lowest index that failed (deterministic regardless of worker count), or
// nil if every call succeeded. All items run even when one fails; the
// per-item work in this codebase is side-effect-free on error, so draining
// is simpler and keeps the error choice deterministic.
func ForErr(n int, fn func(i int) error) error {
	if n <= 0 {
		return nil
	}
	errs := make([]error, n)
	For(n, func(i int) { errs[i] = fn(i) })
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

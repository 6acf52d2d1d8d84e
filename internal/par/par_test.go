package par

import (
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
)

// setProcs sets GOMAXPROCS to n for the rest of the test. Tests that call it
// must not be parallel: a non-parallel test never overlaps a parallel one.
func setProcs(t *testing.T, n int) {
	t.Helper()
	old := runtime.GOMAXPROCS(n)
	t.Cleanup(func() { runtime.GOMAXPROCS(old) })
}

func TestWorkers(t *testing.T) {
	for _, n := range []int{1, 3} {
		setProcs(t, n)
		if got := Workers(); got != n {
			t.Fatalf("GOMAXPROCS %d: Workers() = %d", n, got)
		}
	}
}

func TestForCoversAllIndices(t *testing.T) {
	for _, workers := range []int{1, 2, 8, 100} {
		setProcs(t, workers)
		n := 57
		seen := make([]atomic.Int32, n)
		For(n, func(i int) { seen[i].Add(1) })
		for i := range seen {
			if got := seen[i].Load(); got != 1 {
				t.Fatalf("workers=%d: index %d ran %d times", workers, i, got)
			}
		}
	}
}

func TestForDeterministicOutput(t *testing.T) {
	// The contract: indexed writes produce identical slices at any width.
	run := func(workers int) []int {
		setProcs(t, workers)
		out := make([]int, 200)
		For(len(out), func(i int) { out[i] = i * i })
		return out
	}
	base := run(1)
	for _, w := range []int{2, 8} {
		got := run(w)
		for i := range base {
			if got[i] != base[i] {
				t.Fatalf("workers=%d: out[%d] = %d, want %d", w, i, got[i], base[i])
			}
		}
	}
}

func TestForZeroAndNegativeN(t *testing.T) {
	setProcs(t, 4)
	called := false
	For(0, func(int) { called = true })
	For(-1, func(int) { called = true })
	if called {
		t.Fatal("fn called for empty range")
	}
	var scratch []int
	ForWorker(0, &scratch, func() int { return 1 }, func(int, int) { called = true })
	if called || len(scratch) != 0 {
		t.Fatal("ForWorker ran or allocated scratch for an empty range")
	}
}

// TestForWorkerIndexInRange checks the scratch contract: a call grows the
// caller's slice to one element per worker it runs — min(GOMAXPROCS, n) —
// no element is used by two items at once, and a narrower call reuses the
// elements a wider one made.
func TestForWorkerIndexInRange(t *testing.T) {
	type scratch struct{ busy atomic.Int32 }
	var s []*scratch
	made := 0
	newScratch := func() *scratch { made++; return &scratch{} }
	for _, tc := range []struct{ procs, n, want int }{{3, 40, 3}, {8, 5, 5}, {2, 40, 5}} {
		setProcs(t, tc.procs)
		var bad, ran atomic.Int32
		ForWorker(tc.n, &s, newScratch, func(sc *scratch, i int) {
			if sc.busy.Add(1) != 1 {
				bad.Add(1)
			}
			runtime.Gosched()
			sc.busy.Add(-1)
			ran.Add(1)
		})
		if bad.Load() != 0 || int(ran.Load()) != tc.n {
			t.Fatalf("procs=%d n=%d: %d items ran, %d shared a scratch element", tc.procs, tc.n, ran.Load(), bad.Load())
		}
		if len(s) != tc.want || made != tc.want {
			t.Fatalf("procs=%d n=%d: %d scratch elements (%d made), want %d", tc.procs, tc.n, len(s), made, tc.want)
		}
	}
}

func TestForErrReturnsLowestIndexError(t *testing.T) {
	for _, workers := range []int{1, 8} {
		setProcs(t, workers)
		err := ForErr(100, func(i int) error {
			if i == 13 || i == 77 {
				return fmt.Errorf("item %d", i)
			}
			return nil
		})
		if err == nil || err.Error() != "item 13" {
			t.Fatalf("workers=%d: err = %v, want item 13", workers, err)
		}
	}
	if err := ForErr(50, func(int) error { return nil }); err != nil {
		t.Fatalf("unexpected error %v", err)
	}
	if err := ForErr(0, func(int) error { return errors.New("never") }); err != nil {
		t.Fatalf("empty range returned %v", err)
	}
}

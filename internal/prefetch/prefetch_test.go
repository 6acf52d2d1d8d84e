package prefetch

import (
	"testing"

	"coterie/internal/cache"
	"coterie/internal/geom"
)

// fakeSource records fetches and completes them on demand.
type fakeSource struct {
	pending []pendingFetch
}

type pendingFetch struct {
	player int
	pt     geom.GridPoint
	done   func([]byte, int, float64, float64)
}

func (f *fakeSource) Fetch(player int, pt geom.GridPoint, done func([]byte, int, float64, float64)) {
	f.pending = append(f.pending, pendingFetch{player, pt, done})
}

func (f *fakeSource) completeAll() {
	for _, p := range f.pending {
		p.done([]byte{1}, 1000, 0, 5)
	}
	f.pending = nil
}

func uniformMeta(leaf int, sig uint64, thresh float64) Meta {
	return func(geom.GridPoint) (int, uint64, float64) { return leaf, sig, thresh }
}

func newTestPrefetcher(thresh float64) (*Prefetcher, *fakeSource, *cache.Cache) {
	grid := geom.NewGrid(geom.NewRect(100, 100), 0.5)
	cfg, _ := cache.Version(3)
	c := cache.New(cfg)
	src := &fakeSource{}
	p := New(grid, uniformMeta(0, 1, thresh), c, src, 0, DefaultConfig())
	return p, src, c
}

func TestColdStartFetches(t *testing.T) {
	p, src, _ := newTestPrefetcher(3)
	p.Tick(geom.V2(50, 50), geom.V2(1, 0))
	if len(src.pending) == 0 {
		t.Fatal("cold cache should trigger a fetch")
	}
	if p.Inflight() != len(src.pending) {
		t.Fatalf("inflight %d != pending %d", p.Inflight(), len(src.pending))
	}
}

func TestInflightBudgetRespected(t *testing.T) {
	p, src, _ := newTestPrefetcher(0.1) // tiny threshold: nothing covers
	for i := 0; i < 10; i++ {
		p.Tick(geom.V2(50+float64(i), 50), geom.V2(2, 0))
	}
	if len(src.pending) > maxInflight {
		t.Fatalf("%d concurrent fetches exceed budget %d", len(src.pending), maxInflight)
	}
	if p.Stats().SkippedBusy == 0 {
		t.Fatal("expected busy skips when the budget is exhausted")
	}
}

func TestCacheHitSkipsFetch(t *testing.T) {
	p, src, _ := newTestPrefetcher(5)
	p.Tick(geom.V2(50, 50), geom.V2(1, 0))
	src.completeAll()
	// Now nearby predictions are covered by the cached frame.
	p.Tick(geom.V2(50.2, 50), geom.V2(1, 0))
	if len(src.pending) != 0 {
		t.Fatalf("fetches issued despite cache coverage: %d", len(src.pending))
	}
	if p.Stats().SkippedCache == 0 {
		t.Fatal("expected cache skips")
	}
}

func TestDeliveredFramesInserted(t *testing.T) {
	p, src, c := newTestPrefetcher(3)
	p.Tick(geom.V2(50, 50), geom.V2(1, 0))
	n := len(src.pending)
	src.completeAll()
	if c.Len() != n {
		t.Fatalf("cache has %d frames after %d deliveries", c.Len(), n)
	}
	if got := p.Stats().Delivered; got != int64(n) {
		t.Fatalf("delivered = %d", got)
	}
	if p.Inflight() != 0 {
		t.Fatal("inflight not cleared")
	}
}

func TestCoveredByInflightSuppressesDuplicates(t *testing.T) {
	p, src, _ := newTestPrefetcher(5)
	p.Tick(geom.V2(50, 50), geom.V2(1, 0))
	issued := p.Stats().Issued
	// Same prediction again while the fetch is still in flight: nothing
	// new should be issued (the pending frame will cover it).
	p.Tick(geom.V2(50.05, 50), geom.V2(1, 0))
	if p.Stats().Issued != issued {
		t.Fatalf("duplicate fetch issued: %d -> %d", issued, p.Stats().Issued)
	}
	_ = src
}

func TestExplicitFetch(t *testing.T) {
	p, src, _ := newTestPrefetcher(3)
	pt := geom.GridPoint{I: 10, J: 10}
	p.Fetch(pt)
	p.Fetch(pt) // idempotent while in flight
	if len(src.pending) != 1 {
		t.Fatalf("explicit fetch issued %d requests", len(src.pending))
	}
	if src.pending[0].pt != pt {
		t.Fatalf("fetched %v", src.pending[0].pt)
	}
}

func TestPrefetchAimsAhead(t *testing.T) {
	p, src, _ := newTestPrefetcher(0.01)
	pos := geom.V2(50, 50)
	vel := geom.V2(10, 0) // fast, so the lookahead target is well ahead
	p.Tick(pos, vel)
	if len(src.pending) == 0 {
		t.Fatal("no fetch issued")
	}
	target := src.pending[0].pt
	tp := p.Grid.Pos(target)
	if tp.X <= pos.X+1 {
		t.Fatalf("prefetch target %v not ahead of player at %v", tp, pos)
	}
}

func TestMetaDrivesCacheCriteria(t *testing.T) {
	// A cached frame from a different leaf must not suppress fetching.
	grid := geom.NewGrid(geom.NewRect(100, 100), 0.5)
	cfg, _ := cache.Version(3)
	c := cache.New(cfg)
	src := &fakeSource{}
	leafOf := func(pt geom.GridPoint) (int, uint64, float64) {
		if pt.I < 100 {
			return 1, 7, 5
		}
		return 2, 7, 5
	}
	p := New(grid, leafOf, c, src, 0, DefaultConfig())
	// Seed the cache with a frame in leaf 1 near the boundary.
	c.Insert(cache.Entry{Point: geom.GridPoint{I: 99, J: 100}, Pos: grid.Pos(geom.GridPoint{I: 99, J: 100}), LeafID: 1, NearSig: 7, Size: 1})
	// Predict into leaf 2: the leaf-1 frame is within threshold distance
	// but must not count.
	p.Tick(geom.V2(50.4, 50), geom.V2(1, 0))
	if len(src.pending) == 0 {
		t.Fatal("cross-leaf cache entry suppressed a required fetch")
	}
}

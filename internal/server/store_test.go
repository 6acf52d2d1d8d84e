package server

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"coterie/internal/geom"
	"coterie/internal/obs"
)

// storePut runs the full singleflight cycle for a point with fixed data,
// failing the test if the point was already cached or in flight.
func storePut(t *testing.T, st *frameStore, pt geom.GridPoint, size int) {
	t.Helper()
	_, ok, c, leader := st.lookup(pt)
	if ok || !leader {
		t.Fatalf("point %v unexpectedly cached or in flight", pt)
	}
	st.complete(pt, c, make([]byte, size), nil)
}

func storeHas(st *frameStore, pt geom.GridPoint) bool {
	data, ok, c, leader := st.lookup(pt)
	if ok {
		_ = data
		return true
	}
	if leader {
		// Undo the speculative call so the store has no dangling in-flight
		// marker.
		st.complete(pt, c, nil, errors.New("probe"))
	}
	return false
}

// TestStoreLRUEvictionOrder pins the eviction policy, exact global LRU:
// inserts beyond the budget evict the least recently used point, and a
// cache hit refreshes recency.
func TestStoreLRUEvictionOrder(t *testing.T) {
	st := newFrameStore()
	st.SetBudget(300) // three 100-byte frames

	pts := []geom.GridPoint{{I: 0, J: 0}, {I: 1, J: 0}, {I: 2, J: 0}}
	for _, pt := range pts {
		storePut(t, st, pt, 100)
	}
	if st.Bytes() != 300 || st.Len() != 3 {
		t.Fatalf("store holds %d bytes / %d frames, want 300/3", st.Bytes(), st.Len())
	}

	// Touch the oldest so {1,0} becomes least recently used.
	if !storeHas(st, pts[0]) {
		t.Fatal("expected {0,0} cached")
	}
	storePut(t, st, geom.GridPoint{I: 3, J: 0}, 100)
	if storeHas(st, pts[1]) {
		t.Error("{1,0} was LRU but survived eviction")
	}
	if !storeHas(st, pts[0]) || !storeHas(st, pts[2]) {
		t.Error("recently used points were evicted")
	}
	if st.Evictions() != 1 {
		t.Errorf("evictions = %d, want 1", st.Evictions())
	}
	if st.Bytes() > 300 {
		t.Errorf("bytes %d exceed budget 300", st.Bytes())
	}

	// Shrinking the budget evicts immediately, LRU first. The storeHas
	// probes above refreshed {0,0} then {2,0}, so {2,0} is now MRU and
	// must be the lone survivor.
	st.SetBudget(100)
	if st.Bytes() > 100 || st.Len() != 1 {
		t.Fatalf("after budget shrink: %d bytes / %d frames", st.Bytes(), st.Len())
	}
	if !storeHas(st, pts[2]) {
		t.Error("survivor of budget shrink is not the most recently used")
	}
}

// TestStoreOversizedFrameNotCached pins the budget edge case: a frame
// larger than the entire budget is returned to its requester but never
// stored (storing it would evict everything and still bust the budget).
func TestStoreOversizedFrameNotCached(t *testing.T) {
	st := newFrameStore()
	st.SetBudget(50)
	pt := geom.GridPoint{I: 9, J: 9}
	storePut(t, st, pt, 51)
	if st.Len() != 0 || st.Bytes() != 0 {
		t.Fatalf("oversized frame entered the store: %d bytes / %d frames", st.Bytes(), st.Len())
	}
	if storeHas(st, pt) {
		t.Fatal("oversized frame reported as cached")
	}
}

// TestStoreSingleflightPerPoint hammers one store from 64 goroutines
// across a handful of points: for each point exactly one caller must lead
// (and "render"), every joiner must observe the leader's bytes, and the
// store must end with one entry per point. Run with -race this also
// checks the store's locking.
func TestStoreSingleflightPerPoint(t *testing.T) {
	st := newFrameStore()
	var leaders [4]atomic.Int64
	pts := []geom.GridPoint{{I: 0, J: 0}, {I: 5, J: 3}, {I: 7, J: 7}, {I: 2, J: 9}}

	var start, done sync.WaitGroup
	start.Add(1)
	errs := make(chan error, 64)
	for g := 0; g < 64; g++ {
		done.Add(1)
		go func(g int) {
			defer done.Done()
			start.Wait()
			k := g % len(pts)
			pt := pts[k]
			data, ok, c, leader := st.lookup(pt)
			switch {
			case ok:
			case leader:
				leaders[k].Add(1)
				data = []byte(fmt.Sprintf("frame-%d", k))
				st.complete(pt, c, data, nil)
			default:
				<-c.done
				data = c.data
			}
			if want := fmt.Sprintf("frame-%d", k); string(data) != want {
				errs <- fmt.Errorf("goroutine %d: got %q, want %q", g, data, want)
			}
		}(g)
	}
	start.Done()
	done.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	for k := range leaders {
		if n := leaders[k].Load(); n != 1 {
			t.Errorf("point %d had %d leaders, want exactly 1", k, n)
		}
	}
	if st.Len() != len(pts) {
		t.Errorf("store holds %d frames, want %d", st.Len(), len(pts))
	}
}

// TestStoreInstrumented checks the registry wiring: store_bytes tracks
// resident bytes through inserts and evictions, and the evictions counter
// matches the store's own count.
func TestStoreInstrumented(t *testing.T) {
	r := obs.NewRegistry()
	st := newFrameStore()
	st.instrument(r.Gauge("server.store_bytes"), r.Counter("server.evictions"))
	st.SetBudget(250)
	for i := 0; i < 5; i++ {
		storePut(t, st, geom.GridPoint{I: i, J: 0}, 100)
	}
	if g := r.Gauge("server.store_bytes").Value(); g != st.Bytes() {
		t.Errorf("store_bytes gauge %d != store bytes %d", g, st.Bytes())
	}
	if st.Bytes() > 250 {
		t.Errorf("bytes %d exceed budget", st.Bytes())
	}
	if c := r.Counter("server.evictions").Value(); c != st.Evictions() || c == 0 {
		t.Errorf("evictions counter %d, store %d, want equal and nonzero", c, st.Evictions())
	}
}

// TestPrerenderRespectsBudget warms more frames than the budget holds and
// checks the invariant the ISSUE names: prerender + eviction keeps
// store_bytes at or under the budget at completion, with evictions
// recorded.
func TestPrerenderRespectsBudget(t *testing.T) {
	srv := New(poolEnv(t))
	scene := srv.env.Game.Scene

	// Budget two average frames, then warm a region far larger.
	sample, err := srv.FrameFor(scene.Grid.Snap(srv.env.Game.Spawn))
	if err != nil {
		t.Fatal(err)
	}
	budget := int64(2*len(sample) + len(sample)/2)
	srv.SetStoreBudget(budget)

	// A 6x6-point patch around spawn: enough to overflow a two-frame
	// budget many times over without rendering the whole world.
	step := scene.Grid.Step
	region := geom.Rect{
		MinX: srv.env.Game.Spawn.X, MaxX: srv.env.Game.Spawn.X + 5*step,
		MinZ: srv.env.Game.Spawn.Z, MaxZ: srv.env.Game.Spawn.Z + 5*step,
	}
	stats, err := srv.PrerenderRegion(region, 1)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Points < 8 {
		t.Fatalf("region too small for the test: %d points", stats.Points)
	}
	bytes, evictions, frames := srv.StoreStats()
	if bytes > budget {
		t.Errorf("store_bytes %d exceeds budget %d after prerender", bytes, budget)
	}
	if evictions == 0 {
		t.Error("expected evictions while warming past the budget")
	}
	if frames == 0 {
		t.Error("store empty after prerender")
	}
	t.Logf("prerender: %d points, %d rendered; store %d bytes / %d frames, %d evictions",
		stats.Points, stats.Rendered, bytes, frames, evictions)
}

// TestStoreEvictionRacesInFlightDelta drives the store's full mutation
// surface concurrently — singleflight inserts, delta caching, budget
// shrinks forcing eviction, and readers scanning the slices they were
// handed — to prove under -race that eviction only unreferences frame
// bytes and never mutates a buffer an in-flight delta encoding still
// reads.
func TestStoreEvictionRacesInFlightDelta(t *testing.T) {
	st := newFrameStore()
	st.SetBudget(4 << 10)
	const iters = 3000
	refPt := geom.GridPoint{I: -1, J: -1}

	var wg sync.WaitGroup
	wg.Add(3)
	go func() { // writer: insert frames and attach cached deltas
		defer wg.Done()
		for i := 0; i < iters; i++ {
			pt := geom.GridPoint{I: i % 16, J: (i / 16) % 16}
			_, ok, c, leader := st.lookup(pt)
			if ok {
				continue
			}
			if !leader {
				<-c.done
				continue
			}
			data := make([]byte, 64)
			data[0] = byte(i)
			st.complete(pt, c, data, nil)
			st.putDelta(pt, refPt, []byte{byte(i), 1, 2})
		}
	}()
	go func() { // evictor: churn the budget so eviction runs constantly
		defer wg.Done()
		for i := 0; i < iters; i++ {
			if i%2 == 0 {
				st.SetBudget(512)
			} else {
				st.SetBudget(4 << 10)
			}
		}
	}()
	go func() { // reader: peek frames and scan the bytes mid-eviction,
		// the access pattern of a session delta-encoding a reference
		defer wg.Done()
		sum := 0
		for i := 0; i < iters; i++ {
			pt := geom.GridPoint{I: i % 16, J: (i / 16) % 16}
			if data, ok := st.peek(pt); ok {
				for _, b := range data {
					sum += int(b)
				}
				if d, ok := st.delta(pt, refPt); ok {
					sum += int(d[0])
				}
			}
		}
		_ = sum
	}()
	wg.Wait()

	if b := st.Budget(); b > 0 && st.Bytes() > b {
		t.Errorf("store %d bytes exceeds final budget %d", st.Bytes(), b)
	}
}

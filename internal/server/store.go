package server

import (
	"sync"

	"coterie/internal/geom"
	"coterie/internal/lru"
	"coterie/internal/obs"
	"coterie/internal/transport"
)

// The frame store is the server's hot shared structure: every frame
// request for every session goes through it, and an unbounded map grows
// with the reachable grid (a 24M-point world at ~5 KB per encoded frame is
// ~120 GB). It is one mutex over one recency map with a byte budget, so
// eviction is exact LRU. One lock is enough: it is held for a map lookup
// and a list splice (≈ 70 ns) inside a hit that costs ≈ 14 µs end to end,
// and saturates at ≈ 8 M lookups/s on two cores against the ≈ 0.1 M hits/s
// two closed-loop players reach there and the four-player server the
// paper sizes (§5.1) can ask for (BenchmarkStoreHit, DESIGN.md §8).

// frameCall is one in-flight render shared by concurrent requesters
// (singleflight). The leader renders, stores the result, then closes done;
// joiners block on done and read data/origin/err.
type frameCall struct {
	done   chan struct{}
	data   []byte
	origin transport.FrameOrigin
	err    error
}

// deltaRec is one cached delta encoding of an entry's frame against a
// reference frame, keyed by the reference's grid point: a frame's bytes
// are a pure function of its point, so the point names exactly the bytes
// the client decoded. The record stays valid after the reference's store
// entry is evicted (validity depends on what the *client* holds, not the
// store), but dies with its own entry.
type deltaRec struct {
	refPt geom.GridPoint
	data  []byte
}

// maxDeltasPerEntry bounds the cached encodings per frame; the oldest is
// replaced FIFO. Sessions walking the same corridor share references, so
// a few slots cover the common reuse without letting a point fan out a
// delta per client.
const maxDeltasPerEntry = 4

// storeEntry is one cached encoded frame. Deltas ride along and are
// charged to the byte budget with the frame.
type storeEntry struct {
	data   []byte
	deltas []deltaRec
}

// size is the entry's budget charge: frame bytes plus cached deltas.
func (e *storeEntry) size() int64 {
	n := int64(len(e.data))
	for i := range e.deltas {
		n += int64(len(e.deltas[i].data))
	}
	return n
}

// frameStore is a byte-bounded, LRU-evicting cache of encoded far-BE
// frames with singleflight render coalescing per grid point. The zero
// value is not usable; construct with newFrameStore.
type frameStore struct {
	mu        sync.Mutex
	entries   lru.Map[geom.GridPoint, *storeEntry]
	calls     map[geom.GridPoint]*frameCall // in-flight renders
	bytes     int64                         // resident frame + delta bytes
	budget    int64                         // byte budget; <= 0 means unbounded
	evictions int64

	// Observability (nil-safe).
	storeBytes *obs.Gauge
	evictedCtr *obs.Counter
}

func newFrameStore() *frameStore {
	return &frameStore{calls: make(map[geom.GridPoint]*frameCall)}
}

// instrument attaches registry instruments; either may be nil.
func (st *frameStore) instrument(bytes *obs.Gauge, evictions *obs.Counter) {
	st.storeBytes = bytes
	st.evictedCtr = evictions
}

// lookup is the singleflight entry point. It returns, in order of
// precedence: a cached frame (ok=true, the entry marked most recently
// used); an in-flight call to join (leader=false — wait on c.done and
// read c.data/c.err); or a fresh call this caller now leads (leader=true —
// render, then finish with complete).
func (st *frameStore) lookup(pt geom.GridPoint) (data []byte, ok bool, c *frameCall, leader bool) {
	st.mu.Lock()
	defer st.mu.Unlock()
	if e, hit := st.entries.Get(pt); hit {
		return e.data, true, nil, false
	}
	if c, inflight := st.calls[pt]; inflight {
		return nil, false, c, false
	}
	c = &frameCall{done: make(chan struct{})}
	st.calls[pt] = c
	return nil, false, c, true
}

// peek returns the cached frame bytes for pt (marking it most recently
// used) without joining or leading a render: the stale rung, the push
// path and the delta path's reference reconstruction serve only what is
// already resident.
func (st *frameStore) peek(pt geom.GridPoint) (data []byte, ok bool) {
	st.mu.Lock()
	defer st.mu.Unlock()
	e, hit := st.entries.Get(pt)
	if !hit {
		return nil, false
	}
	return e.data, true
}

// delta returns the cached delta encoding of pt's frame against refPt's,
// if one was put earlier and pt's entry is still resident.
func (st *frameStore) delta(pt, refPt geom.GridPoint) ([]byte, bool) {
	st.mu.Lock()
	defer st.mu.Unlock()
	e, hit := st.entries.Peek(pt)
	if !hit {
		return nil, false
	}
	for i := range e.deltas {
		if e.deltas[i].refPt == refPt {
			return e.deltas[i].data, true
		}
	}
	return nil, false
}

// putDelta caches a delta encoding on pt's entry; when the entry is not
// resident (evicted since the caller read it) the delta is dropped
// silently. Delta bytes count against the byte budget.
func (st *frameStore) putDelta(pt, refPt geom.GridPoint, data []byte) {
	st.mu.Lock()
	defer st.mu.Unlock()
	e, hit := st.entries.Peek(pt)
	if !hit {
		return
	}
	for i := range e.deltas {
		if e.deltas[i].refPt == refPt {
			return // already cached by a concurrent session
		}
	}
	if len(e.deltas) >= maxDeltasPerEntry {
		st.bytes -= int64(len(e.deltas[0].data))
		e.deltas = append(e.deltas[:0], e.deltas[1:]...)
	}
	e.deltas = append(e.deltas, deltaRec{refPt: refPt, data: data})
	st.bytes += int64(len(data))
	st.enforceBudget()
}

// complete finishes a call started by lookup: it publishes data/err to the
// joiners, removes the in-flight marker, and on success inserts the frame
// and enforces the byte budget. Frames larger than the whole budget are
// returned to callers but never stored.
func (st *frameStore) complete(pt geom.GridPoint, c *frameCall, data []byte, err error) {
	c.data, c.err = data, err
	st.mu.Lock()
	delete(st.calls, pt)
	if err == nil && (st.budget <= 0 || int64(len(data)) <= st.budget) {
		if _, dup := st.entries.Peek(pt); !dup {
			st.entries.Put(pt, &storeEntry{data: data})
			st.bytes += int64(len(data))
			st.enforceBudget()
		}
	}
	st.mu.Unlock()
	close(c.done)
}

// SetBudget sets the byte budget (<= 0 means unbounded) and immediately
// evicts down to it.
func (st *frameStore) SetBudget(n int64) {
	st.mu.Lock()
	defer st.mu.Unlock()
	st.budget = n
	st.enforceBudget()
}

// Budget returns the current byte budget (<= 0 means unbounded).
func (st *frameStore) Budget() int64 {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.budget
}

// Bytes returns the total stored frame and delta bytes.
func (st *frameStore) Bytes() int64 {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.bytes
}

// Evictions returns the number of frames evicted so far.
func (st *frameStore) Evictions() int64 {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.evictions
}

// Len returns the number of cached frames.
func (st *frameStore) Len() int {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.entries.Len()
}

// enforceBudget evicts least-recently-used frames until the store fits
// its budget, then publishes the resident bytes. Caller holds st.mu.
// In-flight readers holding slices of an evicted frame are unaffected (the
// buffer is simply unreferenced by the store). An entry's cached deltas
// die with it; deltas encoded against it elsewhere stay valid (their
// reference is what the client holds, not this entry).
func (st *frameStore) enforceBudget() {
	for st.budget > 0 && st.bytes > st.budget {
		_, e, ok := st.entries.RemoveOldest()
		if !ok {
			break
		}
		st.bytes -= e.size()
		st.evictions++
		st.evictedCtr.Inc()
	}
	st.storeBytes.Set(st.bytes)
}

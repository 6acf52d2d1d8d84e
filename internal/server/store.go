package server

import (
	"sync"
	"sync/atomic"
	"time"

	"coterie/internal/geom"
	"coterie/internal/obs"
	"coterie/internal/transport"
)

// The frame store is the server's hot shared structure: every frame
// request for every session goes through it. A single mutex over one map
// serialises all sessions on cache hits, and an unbounded map grows with
// the reachable grid (a 24M-point world at ~5 KB per encoded frame is
// ~120 GB). This file replaces both properties: the store is sharded by a
// grid-point hash so independent points contend only within a shard, and
// it carries a global byte budget with per-shard LRU lists so eviction
// reclaims the coldest frames first.

// defaultStoreShards is the shard count when the caller does not choose
// one. Sixteen shards keep per-shard contention negligible for the player
// counts the load harness exercises (64) while costing only a few hundred
// bytes of fixed overhead.
const defaultStoreShards = 16

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

// storeEntry is one cached encoded frame, threaded on its shard's LRU
// list (head is most recent, tail least). Deltas ride along and are
// charged to the byte budget with the frame.
type storeEntry struct {
	pt         geom.GridPoint
	data       []byte
	deltas     []deltaRec
	prev, next *storeEntry
}

// size is the entry's budget charge: frame bytes plus cached deltas.
func (e *storeEntry) size() int64 {
	n := int64(len(e.data))
	for i := range e.deltas {
		n += int64(len(e.deltas[i].data))
	}
	return n
}

// storeShard is one lock domain: a map of cached frames, their LRU order,
// and the in-flight singleflight calls for points hashing here.
type storeShard struct {
	mu      sync.Mutex
	entries map[geom.GridPoint]*storeEntry
	head    *storeEntry // most recently used
	tail    *storeEntry // least recently used
	calls   map[geom.GridPoint]*frameCall
}

// frameStore is a sharded, byte-bounded, LRU-evicting cache of encoded
// far-BE frames with singleflight render coalescing per grid point.
// The zero value is not usable; construct with newFrameStore.
type frameStore struct {
	shards []storeShard
	mask   uint64

	bytes     atomic.Int64 // total data bytes across shards
	budget    atomic.Int64 // byte budget; <= 0 means unbounded
	evictions atomic.Int64
	// cursor round-robins eviction across shards so no one shard's
	// working set is drained preferentially.
	cursor atomic.Uint64

	// Observability (nil-safe). lockWait is sampled only when set, so the
	// uninstrumented store pays one nil check per lock, not two clock reads.
	storeBytes *obs.Gauge
	evictedCtr *obs.Counter
	lockWait   *obs.Histogram
}

// newFrameStore creates a store with the shard count rounded up to a
// power of two; shards <= 0 selects defaultStoreShards.
func newFrameStore(shards int) *frameStore {
	if shards <= 0 {
		shards = defaultStoreShards
	}
	n := 1
	for n < shards {
		n <<= 1
	}
	st := &frameStore{shards: make([]storeShard, n), mask: uint64(n - 1)}
	for i := range st.shards {
		st.shards[i].entries = make(map[geom.GridPoint]*storeEntry)
		st.shards[i].calls = make(map[geom.GridPoint]*frameCall)
	}
	return st
}

// instrument attaches registry instruments; any may be nil.
func (st *frameStore) instrument(bytes *obs.Gauge, evictions *obs.Counter, lockWait *obs.Histogram) {
	st.storeBytes = bytes
	st.evictedCtr = evictions
	st.lockWait = lockWait
}

// shardFor hashes the grid point's two indices into a shard. The
// multiply-xor mix keeps neighbouring points (a walking player's request
// stream) from clustering in one shard.
func (st *frameStore) shardFor(pt geom.GridPoint) *storeShard {
	h := uint64(uint32(pt.I))*0x9E3779B97F4A7C15 ^ uint64(uint32(pt.J))*0xBF58476D1CE4E5B9
	h ^= h >> 29
	h *= 0xBF58476D1CE4E5B9
	h ^= h >> 32
	return &st.shards[h&st.mask]
}

// lock acquires the shard's mutex, recording the wait when instrumented.
func (st *frameStore) lock(sh *storeShard) {
	if st.lockWait == nil {
		sh.mu.Lock()
		return
	}
	start := time.Now()
	sh.mu.Lock()
	st.lockWait.Observe(float64(time.Since(start)) / float64(time.Millisecond))
}

// lookup is the singleflight entry point. It returns, in order of
// precedence: a cached frame (ok=true, the entry moved to the shard's MRU
// position); an in-flight call to join (leader=false — wait on c.done and
// read c.data/c.err); or a fresh call this caller now leads (leader=true —
// render, then finish with complete).
func (st *frameStore) lookup(pt geom.GridPoint) (data []byte, ok bool, c *frameCall, leader bool) {
	sh := st.shardFor(pt)
	st.lock(sh)
	if e, hit := sh.entries[pt]; hit {
		sh.moveToFront(e)
		sh.mu.Unlock()
		return e.data, true, nil, false
	}
	if c, inflight := sh.calls[pt]; inflight {
		sh.mu.Unlock()
		return nil, false, c, false
	}
	c = &frameCall{done: make(chan struct{})}
	sh.calls[pt] = c
	sh.mu.Unlock()
	return nil, false, c, true
}

// peek returns the cached frame bytes for pt without joining or leading a
// render: the stale rung, the push path and the delta path's reference
// reconstruction serve only what is already resident.
func (st *frameStore) peek(pt geom.GridPoint) (data []byte, ok bool) {
	sh := st.shardFor(pt)
	st.lock(sh)
	e, hit := sh.entries[pt]
	if hit {
		sh.moveToFront(e)
		data = e.data
	}
	sh.mu.Unlock()
	return data, hit
}

// delta returns the cached delta encoding of pt's frame against refPt's,
// if one was put earlier and pt's entry is still resident.
func (st *frameStore) delta(pt, refPt geom.GridPoint) ([]byte, bool) {
	sh := st.shardFor(pt)
	st.lock(sh)
	defer sh.mu.Unlock()
	e, hit := sh.entries[pt]
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
	sh := st.shardFor(pt)
	st.lock(sh)
	e, hit := sh.entries[pt]
	if !hit {
		sh.mu.Unlock()
		return
	}
	for i := range e.deltas {
		if e.deltas[i].refPt == refPt {
			sh.mu.Unlock()
			return // already cached by a concurrent session
		}
	}
	var freed int64
	if len(e.deltas) >= maxDeltasPerEntry {
		freed = int64(len(e.deltas[0].data))
		e.deltas = append(e.deltas[:0], e.deltas[1:]...)
	}
	e.deltas = append(e.deltas, deltaRec{refPt: refPt, data: data})
	sh.mu.Unlock()
	st.bytes.Add(int64(len(data)) - freed)
	st.storeBytes.Set(st.bytes.Load())
	st.enforceBudget()
}

// complete finishes a call started by lookup: it publishes data/err to the
// joiners, removes the in-flight marker, and on success inserts the frame
// and enforces the byte budget. Frames larger than the whole budget are
// returned to callers but never stored.
func (st *frameStore) complete(pt geom.GridPoint, c *frameCall, data []byte, err error) {
	c.data, c.err = data, err
	sh := st.shardFor(pt)
	st.lock(sh)
	delete(sh.calls, pt)
	budget := st.budget.Load()
	if err == nil && (budget <= 0 || int64(len(data)) <= budget) {
		if _, dup := sh.entries[pt]; !dup {
			e := &storeEntry{pt: pt, data: data}
			sh.entries[pt] = e
			sh.pushFront(e)
			st.bytes.Add(int64(len(data)))
		}
	}
	sh.mu.Unlock()
	close(c.done)
	st.storeBytes.Set(st.bytes.Load())
	st.enforceBudget()
}

// SetBudget sets the byte budget (<= 0 means unbounded) and immediately
// evicts down to it.
func (st *frameStore) SetBudget(n int64) {
	st.budget.Store(n)
	st.enforceBudget()
}

// Budget returns the current byte budget (<= 0 means unbounded).
func (st *frameStore) Budget() int64 { return st.budget.Load() }

// Bytes returns the total stored frame bytes.
func (st *frameStore) Bytes() int64 { return st.bytes.Load() }

// Evictions returns the number of frames evicted so far.
func (st *frameStore) Evictions() int64 { return st.evictions.Load() }

// Len returns the number of cached frames.
func (st *frameStore) Len() int {
	n := 0
	for i := range st.shards {
		sh := &st.shards[i]
		st.lock(sh)
		n += len(sh.entries)
		sh.mu.Unlock()
	}
	return n
}

// enforceBudget evicts least-recently-used frames, visiting shards
// round-robin from a shared cursor, until the store fits its budget. Each
// eviction pops one shard's LRU tail; in-flight readers holding slices of
// an evicted frame are unaffected (the buffer is simply unreferenced by
// the store). Shards are locked one at a time, so eviction never holds
// two locks.
func (st *frameStore) enforceBudget() {
	budget := st.budget.Load()
	if budget <= 0 {
		return
	}
	evicted := false
	for st.bytes.Load() > budget {
		freed := false
		// One full round over the shards; if nothing was freed the store
		// is empty (or emptied by a concurrent evictor) and we stop.
		for range st.shards {
			i := st.cursor.Add(1) & st.mask
			sh := &st.shards[i]
			st.lock(sh)
			e := sh.tail
			if e == nil {
				sh.mu.Unlock()
				continue
			}
			sh.unlink(e)
			delete(sh.entries, e.pt)
			sh.mu.Unlock()
			// The entry's cached deltas die with it; deltas encoded
			// against it elsewhere stay valid (their reference is what the
			// client holds, not this entry).
			st.bytes.Add(-e.size())
			st.evictions.Add(1)
			st.evictedCtr.Inc()
			evicted = true
			freed = true
			break
		}
		if !freed {
			break
		}
	}
	if evicted {
		st.storeBytes.Set(st.bytes.Load())
	}
}

// pushFront links a new entry at the MRU position. Caller holds sh.mu.
func (sh *storeShard) pushFront(e *storeEntry) {
	e.prev = nil
	e.next = sh.head
	if sh.head != nil {
		sh.head.prev = e
	}
	sh.head = e
	if sh.tail == nil {
		sh.tail = e
	}
}

// unlink removes an entry from the LRU list. Caller holds sh.mu.
func (sh *storeShard) unlink(e *storeEntry) {
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		sh.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		sh.tail = e.prev
	}
	e.prev, e.next = nil, nil
}

// moveToFront marks an entry most recently used. Caller holds sh.mu.
func (sh *storeShard) moveToFront(e *storeEntry) {
	if sh.head == e {
		return
	}
	sh.unlink(e)
	sh.pushFront(e)
}

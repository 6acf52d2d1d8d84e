package cache

import (
	"coterie/internal/geom"
	"coterie/internal/img"
	"coterie/internal/lru"
)

// RefStore is the client-side reference cache of the delta frame path: a
// byte-budgeted LRU of decoded intra frames keyed by grid point. The
// server only encodes a delta against a frame it believes the client
// holds, and the client keeps that belief honest through the onEvict
// callback — the live client queues a MsgEvictNotice for every budget
// eviction, so a dropped reference is reported before the next frame
// request and the server falls back to intra coding.
//
// RefStore is not safe for concurrent use; the live client drives it
// from a single goroutine (under the connection lock, like the frame
// flow itself).
type RefStore struct {
	budget int64
	bytes  int64
	// onEvict is called for every frame leaving the store, outside any
	// store state mutation. evicted=true means the point is no longer (or
	// never became) held — a budget eviction or an unadmitted Put — and
	// the server must be told before the next request; evicted=false
	// means the frame was replaced by a fresh decode of the same point
	// (the point is still held, so no notice — only the raster is
	// released).
	onEvict func(pt geom.GridPoint, g *img.Gray, evicted bool)

	entries lru.Map[geom.GridPoint, *img.Gray]
}

// NewRefStore creates a reference store with a byte budget (0 or negative
// disables the store: Put releases immediately and Get always misses).
// onEvict may be nil.
func NewRefStore(budget int64, onEvict func(pt geom.GridPoint, g *img.Gray, evicted bool)) *RefStore {
	return &RefStore{budget: budget, onEvict: onEvict}
}

// Len returns the number of cached references.
func (s *RefStore) Len() int { return s.entries.Len() }

// Bytes returns the cached raster bytes.
func (s *RefStore) Bytes() int64 { return s.bytes }

// Get returns the cached decode of pt and marks it most recently used.
// The caller must not release or mutate the returned frame; it stays
// owned by the store.
func (s *RefStore) Get(pt geom.GridPoint) (*img.Gray, bool) {
	return s.entries.Get(pt)
}

// Put hands a decoded intra frame to the store, which takes ownership.
// Evicted frames (and a replaced frame for the same point) are surfaced
// through onEvict after the store's state is consistent.
func (s *RefStore) Put(pt geom.GridPoint, g *img.Gray) {
	if g == nil {
		return
	}
	var out []evicted
	size := int64(len(g.Pix))
	if s.budget <= 0 || size > s.budget {
		// Disabled, or a single frame that could never fit: the point is
		// not held after this call. An older admitted frame for the same
		// point must go too — keeping it would leave the server believing
		// the client holds the *new* decode while the store serves the old
		// one, silently corrupting every delta against it.
		if old, ok := s.entries.Remove(pt); ok {
			s.bytes -= int64(len(old.Pix))
			out = append(out, evicted{pt, old, true})
		}
		out = append(out, evicted{pt, g, true})
	} else {
		// A re-decode of a held point swaps rasters and refreshes its LRU
		// position; the point stays held, so the old raster leaves with
		// evicted=false.
		if old, ok := s.entries.Put(pt, g); ok {
			s.bytes -= int64(len(old.Pix))
			out = append(out, evicted{pt, old, false})
		}
		s.bytes += size
		for s.bytes > s.budget {
			vpt, v, ok := s.entries.RemoveOldest()
			if !ok {
				break
			}
			s.bytes -= int64(len(v.Pix))
			out = append(out, evicted{vpt, v, true})
		}
	}
	if s.onEvict != nil {
		for _, v := range out {
			s.onEvict(v.pt, v.g, v.evicted)
		}
	}
}

type evicted struct {
	pt      geom.GridPoint
	g       *img.Gray
	evicted bool
}

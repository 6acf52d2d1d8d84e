package transport

import (
	"coterie/internal/geom"
	"coterie/internal/lru"
)

// MaxHeldRefs bounds the delta references one TCP session holds. Both ends
// apply the same cap to the same replies, so they agree on the held set
// without a message between them; forgetting a reference only costs a
// delta opportunity. The client holds each reference as its encoded intra
// bytes (≈ 1–3 KB at 256×128) and keeps only a few decoded, so the cap
// costs it ≈ 64 compressed frames, not 64 rasters.
const MaxHeldRefs = 64

// IsReference reports whether the reply makes its point a delta reference:
// only an exact intra frame does. A delta reconstruction is one
// quantisation step removed from the server's (chaining would compound the
// drift), and a stale-rung frame is a neighbour's bytes under this point's
// name.
func (r FrameReply) IsReference() bool {
	return r.Kind == FrameIntra && r.Rung == RungExact
}

// HeldRefs is the reference rule of the delta path, kept by the server
// session (V the point's cutoff leaf) and the live client (V the encoded
// intra bytes): each holds the point of every reply for which
// IsReference is true, in order of first hold, and drops the oldest past
// MaxHeldRefs. The protocol is one reply per request, so both ends see
// the same replies in the same order and hold the same points (the
// sliding-window reference marking of H.264). The zero value is empty and
// ready to use; a HeldRefs is not safe for concurrent use.
type HeldRefs[V any] struct {
	m lru.Map[geom.GridPoint, V]
}

// Hold adds pt with value v and returns the value it did not keep (ok
// false: none). A point already held keeps its place and value, and v is
// returned; otherwise, once the set is over the cap, the oldest is dropped
// and its value returned.
func (h *HeldRefs[V]) Hold(pt geom.GridPoint, v V) (dropped V, ok bool) {
	if _, held := h.m.Peek(pt); held {
		return v, true
	}
	h.m.Put(pt, v)
	if h.m.Len() > MaxHeldRefs {
		_, dropped, ok = h.m.RemoveOldest()
	}
	return dropped, ok
}

// Get returns pt's value without changing the order.
func (h *HeldRefs[V]) Get(pt geom.GridPoint) (V, bool) { return h.m.Peek(pt) }

// Len returns the number of held points.
func (h *HeldRefs[V]) Len() int { return h.m.Len() }

// Each calls f for every held point, oldest first.
func (h *HeldRefs[V]) Each(f func(pt geom.GridPoint, v V)) { h.m.Each(f) }

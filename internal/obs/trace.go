package obs

import "sync"

// defaultTraceSlots is the ring capacity: at 60 fps it holds the last
// ~8.5 seconds of frames for one player.
const defaultTraceSlots = 512

// FrameSpan breaks one displayed frame into the per-stage spans of the
// paper's latency accounting (Eq. 2, Tables 1/5): the parallel tasks the
// frame interval is the max over, plus where the display budget went. All
// durations are virtual session milliseconds, so spans from the simulated
// and live backends are directly comparable.
type FrameSpan struct {
	Player int   `json:"player"`
	Frame  int64 `json:"frame"` // 1-based display sequence for the player
	// StartMs is the pose-sampling time; DisplayMs is when the frame
	// reached the display (vsync-floored).
	StartMs   float64 `json:"start_ms"`
	DisplayMs float64 `json:"display_ms"`
	// LocalMs is the on-device render span (FI + near BE, or the full
	// scene for the Mobile baseline).
	LocalMs float64 `json:"local_ms"`
	// FetchMs is the span the display path waited on the BE frame for
	// *this* interval: 0 when the cache lookup hit, the fetch RTT when it
	// had to go to the server.
	FetchMs float64 `json:"fetch_ms"`
	// NetMs, QueueMs, RenderMs and EncodeMs decompose the fetch that
	// delivered the displayed BE frame (span schema v2): network transit
	// plus reply write, server-side queue wait (connection queue and
	// singleflight sharing), server render, and server encode. The live
	// backend carries these over the wire in the frame reply; the netsim
	// backend emits them natively from its server model, so sim and live
	// traces decompose identically. All four are zero on a cache hit. The
	// sum equals the delivering fetch's full round trip, which can exceed
	// FetchMs when the display attached to a transfer already in flight.
	NetMs    float64 `json:"net_ms"`
	QueueMs  float64 `json:"queue_ms"`
	RenderMs float64 `json:"render_ms"`
	EncodeMs float64 `json:"encode_ms"`
	// HopMs is the cluster proxy overhead when the delivering fetch was
	// peer-served: the proxying node's wall time around the peer hop
	// (dial/pool wait plus hop transit) minus the owner's echoed stages.
	// Zero for local and failover frames, so the v2 identity extends to
	// Net+Hop+Queue+Render+Encode across every origin.
	HopMs float64 `json:"hop_ms,omitempty"`
	// PrefetchMs is the span of the tracked prefetch for the *next* grid
	// point (the T_prefetch term); 0 when the prefetch request hit the
	// cache and no transfer was needed.
	PrefetchMs float64 `json:"prefetch_ms"`
	// DecodeMs is the hardware-decode span for the displayed BE frame.
	DecodeMs float64 `json:"decode_ms"`
	// JoinMs is the Eq. 2 join: the max over the parallel tasks (FI sync
	// round trip, prefetch issue) measured from frame start.
	JoinMs float64 `json:"join_ms"`
	// SlackMs is the display slack: how long the finished pipeline waited
	// for the vsync floor. Zero means the frame consumed its full budget.
	SlackMs float64 `json:"slack_ms"`
	// CacheHit reports whether the displayed BE frame came out of the
	// similarity cache; Prefetched whether a tracked prefetch transfer was
	// in flight this frame.
	CacheHit   bool `json:"cache_hit"`
	Prefetched bool `json:"prefetched"`
	// DeltaFrame reports whether the fetch this frame waited on was served
	// delta-coded against a reference this client already held.
	DeltaFrame bool `json:"delta_frame"`
	// DegradeRung is the quality-degrade rung of the delivering fetch
	// (transport.DegradeRung values: 0 exact, 1 stale-similar). Always 0
	// on cache hits and on backends without a deadline scheduler.
	DegradeRung uint8 `json:"degrade_rung"`
	// Origin is where the serving node got the delivering fetch's bytes
	// (transport.FrameOrigin values: 0 local, 1 fetched from the grid
	// point's cluster owner, 2 failover re-render of a remotely owned
	// point). Always 0 on cache hits and outside cluster deployments.
	Origin uint8 `json:"origin"`
	// TraceID names the distributed trace the delivering fetch belongs to.
	// It is derived from the v2 request context (player and request id, see
	// TraceID()), forwarded verbatim across MsgPeerFrameRequest hops, and
	// recorded on every node that touched the request — so the client span,
	// the proxy's hop span, and the owner's serve span of one peer-served
	// frame all carry the same id. Zero when no fetch backed the frame.
	TraceID uint64 `json:"trace_id,omitempty"`
	// Hop marks server-side spans: 0 is a client display span, 1 a span
	// recorded by the node that served (or proxied) the fetch, 2 a span
	// recorded by the rendezvous owner answering a peer hop.
	Hop uint8 `json:"hop,omitempty"`
}

// TraceID composes the distributed trace id of one v2 frame request from
// its wire context: the requesting player and the per-connection request
// id. Every node deriving the id from the same forwarded request context
// computes the same value, which is what makes cross-node span joins
// work without any extra wire field.
func TraceID(player uint8, reqID uint32) uint64 {
	return uint64(player)<<32 | uint64(reqID)
}

// FetchStages decomposes one BE-frame fetch round trip across the
// client/server boundary. Sources fill it when a fetch completes; the
// pipeline copies it into the FrameSpan of the frame that waited on the
// fetch. All durations are virtual session milliseconds.
type FetchStages struct {
	// NetMs is everything the server did not account for: request and
	// reply transit plus reply marshalling/write. It is derived as the
	// round trip the client measured minus the server-side stages, so
	// NetMs+HopMs+QueueMs+RenderMs+EncodeMs is that round trip exactly.
	NetMs float64
	// QueueMs is the server-side wait before stage work began: connection
	// queueing plus singleflight waiting on another request's render.
	QueueMs float64
	// RenderMs and EncodeMs are the server's render and encode spans,
	// zero when the frame came out of the server's frame store.
	RenderMs float64
	EncodeMs float64
	// HopMs is the cluster proxy overhead for peer-origin frames (see
	// FrameSpan.HopMs); zero otherwise.
	HopMs float64
	// DeltaFrame reports whether the frame arrived delta-coded against a
	// held reference instead of intra-coded.
	DeltaFrame bool
	// DegradeRung is the server's quality-degrade rung for the frame
	// (transport.DegradeRung values); 0 when the frame is exact.
	DegradeRung uint8
	// Origin is where the serving node got the frame's bytes
	// (transport.FrameOrigin values); 0 outside cluster deployments.
	Origin uint8
	// TraceID is the distributed trace id of the fetch (see
	// FrameSpan.TraceID); 0 when the source does not trace.
	TraceID uint64
	// Valid marks stages actually populated by the source.
	Valid bool
}

// TraceRing is a fixed-capacity ring of FrameSpans. Slots are allocated
// once; recording copies the caller's span into the next slot, so the hot
// path never allocates. The mutex is uncontended in practice (one writer
// per clock goroutine, readers only on the cold /trace endpoint).
//
// All methods tolerate a nil receiver, so a disabled registry costs one
// branch.
type TraceRing struct {
	mu    sync.Mutex
	slots []FrameSpan
	total uint64 // spans ever recorded
}

// NewTraceRing creates a ring with n pooled span slots (the default
// capacity if n <= 0).
func NewTraceRing(n int) *TraceRing {
	if n <= 0 {
		n = defaultTraceSlots
	}
	return &TraceRing{slots: make([]FrameSpan, n)}
}

// Record copies the span into the next slot, overwriting the oldest.
func (t *TraceRing) Record(sp *FrameSpan) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.slots[t.total%uint64(len(t.slots))] = *sp
	t.total++
	t.mu.Unlock()
}

// Recorded returns the number of spans ever recorded.
func (t *TraceRing) Recorded() uint64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.total
}

// Len returns the ring capacity in slots (0 for a nil ring).
func (t *TraceRing) Len() int {
	if t == nil {
		return 0
	}
	return len(t.slots)
}

// RecentFor returns up to n of the most recent spans for one player,
// oldest first; player < 0 matches every player (same as Recent). Like
// Recent, it is the cold reporting path and allocates a fresh copy.
func (t *TraceRing) RecentFor(n, player int) []FrameSpan {
	if player < 0 {
		return t.Recent(n)
	}
	if t == nil || n <= 0 {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	avail := t.total
	if avail > uint64(len(t.slots)) {
		avail = uint64(len(t.slots))
	}
	var out []FrameSpan
	// Scan newest to oldest collecting matches, then reverse into
	// oldest-first order.
	for i := uint64(0); i < avail && len(out) < n; i++ {
		idx := (t.total - 1 - i) % uint64(len(t.slots))
		if t.slots[idx].Player == player {
			out = append(out, t.slots[idx])
		}
	}
	for i, j := 0, len(out)-1; i < j; i, j = i+1, j-1 {
		out[i], out[j] = out[j], out[i]
	}
	return out
}

// ForTrace returns every span in the ring carrying the given non-zero
// trace id, oldest first. This is the cold path behind /trace?trace= and
// the cross-node join tests; it allocates a fresh copy.
func (t *TraceRing) ForTrace(id uint64) []FrameSpan {
	if t == nil || id == 0 {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	avail := t.total
	if avail > uint64(len(t.slots)) {
		avail = uint64(len(t.slots))
	}
	var out []FrameSpan
	for i := uint64(0); i < avail; i++ {
		idx := (t.total - avail + i) % uint64(len(t.slots))
		if t.slots[idx].TraceID == id {
			out = append(out, t.slots[idx])
		}
	}
	return out
}

// Recent returns up to n of the most recent spans, oldest first. It
// allocates a fresh copy; this is the cold reporting path.
func (t *TraceRing) Recent(n int) []FrameSpan {
	if t == nil || n <= 0 {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	avail := t.total
	if avail > uint64(len(t.slots)) {
		avail = uint64(len(t.slots))
	}
	if uint64(n) > avail {
		n = int(avail)
	}
	out := make([]FrameSpan, n)
	for i := 0; i < n; i++ {
		idx := (t.total - uint64(n) + uint64(i)) % uint64(len(t.slots))
		out[i] = t.slots[idx]
	}
	return out
}

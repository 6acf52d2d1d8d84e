// Package runtime is the transport-agnostic per-frame client pipeline of
// Coterie (§5.1): pose sampling, FI synchronisation, the system-specific
// rendering path (local full-scene, thin-client streaming, or BE prefetch
// through the similarity cache), the Eq. 2 task join, and vsync-floored
// display scheduling with per-player metrics.
//
// The pipeline is written against three small interfaces — Clock,
// FrameSource and FISync — so the *same* code drives both backends:
//
//   - the deterministic discrete-event testbed (internal/netsim via
//     internal/core), which produces the paper's tables and figures, and
//   - real TCP/UDP sockets (internal/transport via internal/server),
//     which cmd/coterie-client runs against a live coterie-server.
//
// All pipeline state is single-threaded: every callback runs on the clock
// goroutine (the simulator's event loop, or WallClock's run loop). Live
// backends move blocking I/O onto helper goroutines and re-enter the
// pipeline through WallClock.Post.
package runtime

import (
	"fmt"

	"coterie/internal/device"
	"coterie/internal/fisync"
	"coterie/internal/geom"
	"coterie/internal/obs"
	"coterie/internal/trace"
)

// Clock schedules pipeline events in session milliseconds. The testbed
// backend is netsim.Sim; the live backend is WallClock.
type Clock interface {
	Now() float64
	At(t float64, fn func())
	After(d float64, fn func())
}

// FrameSource fetches the encoded BE frame for a grid point. done receives
// the frame bytes (nil in the simulator, which models sizes only), the
// transfer size, and the transfer start/end times in session milliseconds.
// It has the same shape as prefetch.Source, so one implementation serves
// both the prefetcher and the pipeline's direct (thin-client) path.
type FrameSource interface {
	Fetch(player int, pt geom.GridPoint, done func(data []byte, size int, startMs, endMs float64))
}

// StageReporter is an optional FrameSource capability: sources that carry
// the cross-node trace context (span schema v2) expose the stage
// decomposition of their most recently completed fetch. The pipeline
// type-asserts it from Deps.Source and reads it inside the fetch's done
// callback — safe because callbacks run on the clock goroutine and
// completion waiters fire synchronously inside each fetch's done, so "last
// completed" is exactly the fetch that delivered the frame.
type StageReporter interface {
	LastFetchStages() obs.FetchStages
}

// DeadlineSetter is an optional FrameSource capability: sources that can
// carry a deadline to the server (the live TCP backend) accept the
// virtual session time by which the *next* Fetch's reply is needed. The
// pipeline stamps it immediately before each fetch-triggering call on
// the clock goroutine; the source consumes it on that fetch (so a call
// that turns out to be a cache hit leaves no deadline armed). Sources
// without the capability simply fetch without deadlines, preserving the
// pre-scheduler behaviour.
type DeadlineSetter interface {
	SetFetchDeadline(virtualMs float64)
}

// FISync exchanges foreground-interaction state with the other players
// (§5.1 task 4). done, when non-nil, fires with the session time at which
// the round trip completes — one of the parallel terms of the Eq. 2 max.
// The hub backend completes inline; the UDP backend when the reply lands.
type FISync interface {
	Sync(st fisync.State, nowMs float64, done func(readyAtMs float64))
}

// NetMonitor exposes the client's view of the medium for the resource
// model: how many transfers share the link right now, and how many bytes
// this player's BE flow has moved.
type NetMonitor interface {
	ActiveTransfers() int
	FlowBytes(flow int) int64
}

// SystemKind identifies one of the evaluated system designs (§3, §7).
type SystemKind int

const (
	// Mobile renders everything locally (§2.2).
	Mobile SystemKind = iota
	// ThinClient streams every rendered frame from the server (§2.2).
	ThinClient
	// MultiFurion replicates Furion per player: whole-BE prefetch (§3).
	MultiFurion
	// MultiFurionCache adds an exact-match frame cache to Multi-Furion
	// (Fig 11).
	MultiFurionCache
	// CoterieNoCache prefetches far-BE frames without reuse (Fig 11).
	CoterieNoCache
	// Coterie is the full system (§5).
	Coterie
)

// String implements fmt.Stringer.
func (k SystemKind) String() string {
	switch k {
	case Mobile:
		return "Mobile"
	case ThinClient:
		return "Thin-client"
	case MultiFurion:
		return "Multi-Furion"
	case MultiFurionCache:
		return "Multi-Furion+cache"
	case CoterieNoCache:
		return "Coterie w/o cache"
	case Coterie:
		return "Coterie"
	default:
		return fmt.Sprintf("SystemKind(%d)", int(k))
	}
}

// UsesBEPrefetch reports whether the system prefetches BE frames from the
// server (everything except Mobile and Thin-client).
func (k SystemKind) UsesBEPrefetch() bool {
	switch k {
	case MultiFurion, MultiFurionCache, CoterieNoCache, Coterie:
		return true
	}
	return false
}

// SplitsNearFar reports whether the system renders near BE on the device.
func (k SystemKind) SplitsNearFar() bool {
	return k == CoterieNoCache || k == Coterie
}

// SimilarityCache reports whether the system reuses similar frames.
func (k SystemKind) SimilarityCache() bool { return k == Coterie }

// Timing constants of the pipeline in milliseconds.
const (
	// TickMs is the pose-sampling interval (60 Hz trace ticks).
	TickMs = 1000.0 / trace.TickHz
	// mergeMs is the cost of compositing near BE + FI with the decoded
	// far BE (§5.1 task 5, the +T_merge term of Eq. 2).
	mergeMs = 1.2
	// syncMs is the FI synchronisation latency through the server (the
	// paper measures 2-3 ms per interval); the hub backend uses it as the
	// modelled round trip.
	syncMs = 2.5
	// sensorMs is the pose-sampling latency counted by responsiveness.
	sensorMs = 0.5
	// thinOverlayMs is the thin client's local per-frame GPU work
	// (reprojection and UI overlay).
	thinOverlayMs = 3.0
)

// Config describes the pipeline-relevant slice of the environment: the
// system design under test, the device model, the prefetch grid, and the
// scene-geometry callbacks the near/far split needs. The callbacks keep
// the runtime independent of the world/cutoff packages.
type Config struct {
	System SystemKind
	Device device.Profile
	Grid   geom.Grid
	// EndMs is the session length; the pipeline stops scheduling frames
	// at this time.
	EndMs float64
	// TotalTriangles and LODFactor size the Mobile baseline's full-scene
	// render.
	TotalTriangles int
	LODFactor      float64
	// RadiusAt returns the cutoff radius at a position (near/far split).
	RadiusAt func(pos geom.Vec2) float64
	// TrianglesWithin counts scene triangles within a radius of a
	// position (near-BE render cost).
	TrianglesWithin func(pos geom.Vec2, radius float64) int
}

// LatencyAcc accumulates per-transfer network delays for reporting. It is
// not goroutine-safe; backends must serialise Add calls.
type LatencyAcc struct {
	sum   float64
	count int64
}

// Add records one transfer latency in milliseconds.
func (l *LatencyAcc) Add(ms float64) {
	l.sum += ms
	l.count++
}

// Mean returns the mean recorded latency, or 0 with no samples.
func (l *LatencyAcc) Mean() float64 {
	if l.count == 0 {
		return 0
	}
	return l.sum / float64(l.count)
}

// PlayerMetrics aggregates one client's session, matching the columns of
// Tables 1, 7 and 8.
type PlayerMetrics struct {
	Frames       int64
	FPS          float64
	InterFrameMs float64
	// P95InterFrameMs and P99InterFrameMs are tail latencies; VR comfort
	// depends on the tail, not the mean.
	P95InterFrameMs  float64
	P99InterFrameMs  float64
	ResponsivenessMs float64
	CPUPct           float64
	GPUPct           float64
	PowerW           float64
	TempC            float64
	FrameKB          float64 // mean BE transfer size
	NetDelayMs       float64 // mean BE transfer latency
	BEMbps           float64 // per-player BE bandwidth
	CacheHitRatio    float64
	PrefetchIssued   int64
}

// SeriesPoint is one per-second sample of Fig 12's resource traces.
type SeriesPoint struct {
	Sec    int
	CPUPct float64
	GPUPct float64
	PowerW float64
	TempC  float64
}

// HubFISync is the in-process FISync backend: both the testbed and the
// server's TCP path synchronise through a fisync.Hub. The round trip is
// modelled as the paper's measured 2-3 ms and completes inline, so it
// schedules no clock events of its own.
type HubFISync struct {
	Hub *fisync.Hub
	// LatencyMs is the modelled round-trip latency.
	LatencyMs float64
}

// NewHubFISync wraps a hub with the default modelled latency.
func NewHubFISync(h *fisync.Hub) *HubFISync {
	return &HubFISync{Hub: h, LatencyMs: syncMs}
}

// Sync implements FISync. The snapshot is always taken — even when the
// caller does not wait on the result — because the hub accounts FI
// download traffic per snapshot.
func (h *HubFISync) Sync(st fisync.State, nowMs float64, done func(readyAtMs float64)) {
	h.Hub.Update(st)
	h.Hub.Snapshot(st.Player)
	if done != nil {
		done(nowMs + h.LatencyMs)
	}
}

package netsim

import (
	"math"

	"coterie/internal/obs"
)

// The testbed's medium.
const (
	// GoodputMbps is the measured TCP goodput of the medium: the paper
	// measures ~500 Mbps from the server to a phone over 802.11ac with
	// iperf (§3).
	GoodputMbps = 500
	// BaseLatencyMs is the fixed per-transfer latency (request RTT, AP
	// queueing, TCP ramp) added on top of serialisation time.
	BaseLatencyMs = 2.0
)

// WiFi is a processor-sharing model of one wireless collision domain: the
// instantaneous rate of each active transfer is goodput divided by the
// number of active transfers.
type WiFi struct {
	sim    *Sim
	active map[*transfer]struct{}
	epoch  uint64

	// Stats
	perFlowBytes map[int]int64

	// Observability (nil instruments when not wired to a registry).
	obsTransfers  *obs.Counter
	obsBytes      *obs.Counter
	obsActive     *obs.Gauge
	obsLatency    *obs.Histogram
	obsSerialise  *obs.Histogram
	obsContention *obs.Histogram
}

// Instrument mirrors the medium's activity into a registry under the
// "netsim." namespace: transfers started/delivered bytes, the current
// active-transfer count, and per-transfer latency (base latency plus the
// contention slowdown — the quantity Fig 11 plots against player count).
// Each delivered transfer also records its latency attribution: the ideal
// serialisation time (bytes at full goodput) and the contention excess
// (everything beyond base latency plus serialisation — the time lost to
// sharing the medium with concurrent transfers). Instrument(nil) is a
// no-op.
func (w *WiFi) Instrument(r *obs.Registry) {
	if r == nil {
		return
	}
	w.obsTransfers = r.Counter("netsim.transfers")
	w.obsBytes = r.Counter("netsim.bytes")
	w.obsActive = r.Gauge("netsim.active_transfers")
	w.obsLatency = r.Histogram("netsim.transfer_ms")
	w.obsSerialise = r.Histogram("netsim.serialise_ms")
	w.obsContention = r.Histogram("netsim.contention_ms")
}

type transfer struct {
	flow      int // flow tag (player id)
	origin    int // original size in bytes
	remaining float64
	start     float64
	done      func(start, end float64)
	lastTouch float64
}

// NewWiFi creates a medium attached to the simulation clock.
func NewWiFi(sim *Sim) *WiFi {
	return &WiFi{
		sim:          sim,
		active:       make(map[*transfer]struct{}),
		perFlowBytes: make(map[int]int64),
	}
}

// bytesPerMs is the full-medium rate.
func (w *WiFi) bytesPerMs() float64 { return GoodputMbps * 1e6 / 8 / 1000 }

// ActiveTransfers returns the number of in-flight transfers.
func (w *WiFi) ActiveTransfers() int { return len(w.active) }

// FlowBytes returns the bytes delivered to one flow tag.
func (w *WiFi) FlowBytes(flow int) int64 { return w.perFlowBytes[flow] }

// Transfer starts a download of the given size attributed to flow. done
// fires when the transfer completes, with its start and end times; the
// effective latency seen by the caller is end-start, which includes the
// base latency and any slowdown from concurrent transfers.
func (w *WiFi) Transfer(flow int, bytes int, done func(start, end float64)) {
	if bytes <= 0 {
		bytes = 1
	}
	start := w.sim.Now()
	// The base latency precedes medium occupancy (request + server turn
	// around); the payload then shares the medium.
	w.sim.After(BaseLatencyMs, func() {
		t := &transfer{
			flow:      flow,
			origin:    bytes,
			remaining: float64(bytes),
			start:     start,
			done:      done,
			lastTouch: w.sim.Now(),
		}
		w.settle()
		w.active[t] = struct{}{}
		w.obsTransfers.Inc()
		w.obsActive.Set(int64(len(w.active)))
		w.reschedule()
	})
}

// settle charges elapsed time against every active transfer at the current
// shared rate.
func (w *WiFi) settle() {
	n := len(w.active)
	if n == 0 {
		return
	}
	rate := w.bytesPerMs() / float64(n)
	now := w.sim.Now()
	for t := range w.active {
		dt := now - t.lastTouch
		if dt > 0 {
			t.remaining -= rate * dt
			if t.remaining < 0 {
				t.remaining = 0
			}
			t.lastTouch = now
		}
	}
}

// reschedule computes the next completion under the current sharing and
// schedules it; stale events from earlier epochs are ignored.
func (w *WiFi) reschedule() {
	w.epoch++
	n := len(w.active)
	if n == 0 {
		return
	}
	rate := w.bytesPerMs() / float64(n)
	next := math.Inf(1)
	for t := range w.active {
		if ft := t.remaining / rate; ft < next {
			next = ft
		}
	}
	// Clamp to a minimum quantum so completion events always advance the
	// clock: a zero-width event would re-fire at the same instant forever
	// once remaining bytes underflow the epsilon below.
	if next < 1e-6 {
		next = 1e-6
	}
	epoch := w.epoch
	w.sim.After(next, func() {
		if epoch != w.epoch {
			return // the active set changed since this was scheduled
		}
		w.settle()
		w.completeFinished()
	})
}

// completeFinished fires done callbacks for transfers that reached zero
// remaining bytes, then reschedules.
func (w *WiFi) completeFinished() {
	finished := make([]*transfer, 0, 1)
	for t := range w.active {
		if t.remaining <= 1e-6 { // sub-byte residue counts as done
			finished = append(finished, t)
		}
	}
	for _, t := range finished {
		delete(w.active, t)
	}
	if len(finished) > 0 {
		w.obsActive.Set(int64(len(w.active)))
	}
	w.reschedule()
	now := w.sim.Now()
	for _, t := range finished {
		w.perFlowBytes[t.flow] += int64(t.origin)
		w.obsBytes.Add(int64(t.origin))
		w.obsLatency.Observe(now - t.start)
		// Attribute the latency: serialisation is what the bytes would take
		// alone at full goodput; contention is the measured excess over base
		// latency + serialisation (clamped — quantum rounding can leave a
		// tiny negative residue).
		serialise := float64(t.origin) / w.bytesPerMs()
		contention := (now - t.start) - BaseLatencyMs - serialise
		if contention < 0 {
			contention = 0
		}
		w.obsSerialise.Observe(serialise)
		w.obsContention.Observe(contention)
		if t.done != nil {
			t.done(t.start, now)
		}
	}
}

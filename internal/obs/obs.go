// Package obs is Coterie's observability subsystem: a dependency-free
// metrics registry (atomic counters, gauges, and fixed-bucket latency
// histograms with quantile snapshots) plus a per-frame trace ring buffer
// (trace.go) that records where each frame's 16.7 ms budget went.
//
// The paper's evaluation (§7, Tables 1/5, Fig 11/12) is built entirely on
// per-stage latency and bandwidth breakdowns — fetch vs. decode vs.
// compose vs. display — so the instruments here mirror exactly those
// stages. The same instruments are wired into both backends of the shared
// client runtime (the discrete-event testbed and the live TCP/UDP stack),
// so a registry snapshot answers the same questions for a simulated run
// and a live session.
//
// Design constraints, in order:
//
//   - Hot-path safe: recording is a nil check plus an atomic add. No
//     allocation, no locks, no map lookups — instruments are resolved to
//     pointers once at wiring time and held in struct fields.
//   - Disabled is (near) free: every method tolerates a nil receiver, and
//     a nil *Registry hands out nil instruments, so uninstrumented runs
//     (all the eval generators) pay only a predictable nil branch.
//   - Dependency-free: stdlib only, importable from every layer.
package obs

import (
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing atomic counter. The zero value is
// ready to use; all methods are safe on a nil receiver (no-ops).
type Counter struct{ v atomic.Int64 }

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Add adds n.
func (c *Counter) Add(n int64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Value returns the current count (0 for a nil counter).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an instantaneous atomic value (e.g. active sessions, bytes
// resident in a cache). Safe on a nil receiver.
type Gauge struct{ v atomic.Int64 }

// Set stores n.
func (g *Gauge) Set(n int64) {
	if g != nil {
		g.v.Store(n)
	}
}

// Add adds n (negative to decrease).
func (g *Gauge) Add(n int64) {
	if g != nil {
		g.v.Add(n)
	}
}

// Value returns the current value (0 for a nil gauge).
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// DefaultLatencyBuckets are the histogram bounds (milliseconds) used when
// none are given: roughly geometric, with an exact bucket edge at the
// 16.7 ms vsync budget so "made the frame deadline" is directly readable
// from the histogram.
var DefaultLatencyBuckets = []float64{
	0.25, 0.5, 1, 2, 4, 8, 16.7, 33.3, 66.7, 133, 267, 533, 1067, 2133,
}

// Histogram is a fixed-bucket latency histogram. Observations land in
// atomic per-bucket counters, so recording is lock- and allocation-free;
// quantiles are estimated at snapshot time by linear interpolation within
// the winning bucket. Safe on a nil receiver.
type Histogram struct {
	bounds    []float64 // ascending upper bounds; +Inf bucket is implicit
	counts    []atomic.Int64
	count     atomic.Int64
	sumMicros atomic.Int64 // sum in microseconds: atomic without float CAS
}

// NewHistogram creates a histogram with the given ascending bucket upper
// bounds (DefaultLatencyBuckets when none are given).
func NewHistogram(bounds ...float64) *Histogram {
	if len(bounds) == 0 {
		bounds = DefaultLatencyBuckets
	}
	return &Histogram{bounds: bounds, counts: make([]atomic.Int64, len(bounds)+1)}
}

// Observe records one value (typically milliseconds).
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	// Linear scan: the bucket list is short (~14) and the scan is
	// branch-predictable, beating a binary search at this size.
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i].Add(1)
	h.count.Add(1)
	h.sumMicros.Add(int64(v * 1000))
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// HistogramSnapshot is a point-in-time summary of a histogram.
type HistogramSnapshot struct {
	Count int64   `json:"count"`
	Mean  float64 `json:"mean"`
	P50   float64 `json:"p50"`
	P95   float64 `json:"p95"`
	P99   float64 `json:"p99"`
	// Bounds and Counts expose the raw buckets; Counts has one extra
	// entry for the overflow bucket.
	Bounds []float64 `json:"bounds"`
	Counts []int64   `json:"counts"`
}

// Snapshot summarises the histogram. Concurrent observations may tear
// totals by a sample or two; snapshots are for reporting, not accounting.
func (h *Histogram) Snapshot() HistogramSnapshot {
	if h == nil {
		return HistogramSnapshot{}
	}
	s := HistogramSnapshot{
		Count:  h.count.Load(),
		Bounds: h.bounds,
		Counts: make([]int64, len(h.counts)),
	}
	for i := range h.counts {
		s.Counts[i] = h.counts[i].Load()
	}
	if s.Count > 0 {
		s.Mean = float64(h.sumMicros.Load()) / 1000 / float64(s.Count)
		s.P50 = quantile(h.bounds, s.Counts, s.Count, 0.50)
		s.P95 = quantile(h.bounds, s.Counts, s.Count, 0.95)
		s.P99 = quantile(h.bounds, s.Counts, s.Count, 0.99)
	}
	return s
}

// quantile estimates the q-quantile from bucket counts by linear
// interpolation within the bucket holding the target rank. The overflow
// bucket reports its lower bound (the largest finite edge).
func quantile(bounds []float64, counts []int64, total int64, q float64) float64 {
	rank := q * float64(total)
	var cum float64
	for i, c := range counts {
		prev := cum
		cum += float64(c)
		if cum < rank || c == 0 {
			continue
		}
		if i >= len(bounds) { // overflow bucket
			return bounds[len(bounds)-1]
		}
		lo := 0.0
		if i > 0 {
			lo = bounds[i-1]
		}
		return lo + (bounds[i]-lo)*(rank-prev)/float64(c)
	}
	if len(bounds) == 0 {
		return 0
	}
	return bounds[len(bounds)-1]
}

// Registry names and owns a process's instruments. Lookups are idempotent
// — two callers asking for "cache.hits" share one counter — so the sim's
// per-player caches aggregate into one instrument, matching how the paper
// reports per-system totals. A nil *Registry is a valid "disabled"
// registry: it hands out nil instruments, whose methods no-op.
//
// Lookup takes a mutex and must happen at wiring time, never per frame.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
	trace    *TraceRing
}

// NewRegistry creates an empty registry with a trace ring of the default
// capacity.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
		trace:    NewTraceRing(defaultTraceSlots),
	}
}

// Counter returns the named counter, creating it on first use. Returns
// nil (a no-op counter) on a nil registry.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it with the given
// bounds (DefaultLatencyBuckets when none) on first use. Bounds are fixed
// by the first caller; later callers share the instrument as-is.
func (r *Registry) Histogram(name string, bounds ...float64) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[name]
	if !ok {
		h = NewHistogram(bounds...)
		r.hists[name] = h
	}
	return h
}

// Trace returns the registry's frame trace ring (nil on a nil registry).
func (r *Registry) Trace() *TraceRing {
	if r == nil {
		return nil
	}
	return r.trace
}

// Snapshot is a point-in-time copy of every instrument, shaped for JSON.
type Snapshot struct {
	Counters   map[string]int64             `json:"counters"`
	Gauges     map[string]int64             `json:"gauges"`
	Histograms map[string]HistogramSnapshot `json:"histograms"`
}

// Snapshot captures all instruments. Values are read without a global
// pause, so counters related by an invariant may be skewed by in-flight
// updates.
func (r *Registry) Snapshot() Snapshot {
	s := Snapshot{
		Counters:   map[string]int64{},
		Gauges:     map[string]int64{},
		Histograms: map[string]HistogramSnapshot{},
	}
	if r == nil {
		return s
	}
	r.mu.Lock()
	counters := make(map[string]*Counter, len(r.counters))
	for k, v := range r.counters {
		counters[k] = v
	}
	gauges := make(map[string]*Gauge, len(r.gauges))
	for k, v := range r.gauges {
		gauges[k] = v
	}
	hists := make(map[string]*Histogram, len(r.hists))
	for k, v := range r.hists {
		hists[k] = v
	}
	r.mu.Unlock()

	for k, v := range counters {
		s.Counters[k] = v.Value()
	}
	for k, v := range gauges {
		s.Gauges[k] = v.Value()
	}
	for k, v := range hists {
		s.Histograms[k] = v.Snapshot()
	}
	return s
}

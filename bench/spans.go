package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"time"

	"coterie/internal/transport"
)

// Span is one timed interval of the traced run. Parent is the id of the
// span that caused it (0 for the root); spans of one request share their
// fetch span as ancestor.
type Span struct {
	ID      int     `json:"id"`
	Parent  int     `json:"parent"`
	Name    string  `json:"name"`
	StartUs float64 `json:"start_us"`
	DurUs   float64 `json:"dur_us"`
	// SelfUs is DurUs minus the part its children cover; filled on write.
	SelfUs float64     `json:"self_us"`
	Fetch  *FetchAttrs `json:"fetch,omitempty"`
}

// FetchAttrs describes the request a fetch span timed.
type FetchAttrs struct {
	Player int    `json:"player"`
	Seq    int    `json:"seq"`
	I      int    `json:"i"`
	J      int    `json:"j"`
	Kind   uint8  `json:"kind"`
	Rung   uint8  `json:"rung"`
	Origin uint8  `json:"origin"`
	Bytes  int    `json:"bytes"`
	Path   string `json:"path"` // tcp or udp
}

// maxFetchSpans bounds the recorder's memory: warm_walk issues ninety
// thousand fetches a second, and every one past the cap is counted in
// spans_dropped instead of kept. Round and layer-pass spans are few and
// always kept.
const maxFetchSpans = 100_000

// Recorder keeps the traced run's spans in memory until the run ends. A
// nil *Recorder records nothing, so untraced runs share the code path.
type Recorder struct {
	t0      time.Time
	mu      sync.Mutex
	spans   []Span
	fetches int
	dropped int
}

// NewRecorder starts a recorder whose span clock begins now.
func NewRecorder() *Recorder { return &Recorder{t0: time.Now()} }

// Add records one span and returns its id.
func (r *Recorder) Add(parent int, name string, start time.Time, dur time.Duration, fetch *FetchAttrs) int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	id := len(r.spans) + 1
	r.spans = append(r.spans, Span{
		ID: id, Parent: parent, Name: name,
		StartUs: float64(start.Sub(r.t0)) / float64(time.Microsecond),
		DurUs:   float64(dur) / float64(time.Microsecond),
		Fetch:   fetch,
	})
	return id
}

// SetDur sets the interval of a span added before its work began (a round
// must exist before its fetches can name it as parent).
func (r *Recorder) SetDur(id int, start time.Time, dur time.Duration) {
	if r == nil || id == 0 {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans[id-1].StartUs = float64(start.Sub(r.t0)) / float64(time.Microsecond)
	r.spans[id-1].DurUs = float64(dur) / float64(time.Microsecond)
}

// stageSpans splits a fetch's round trip into the server-side stages the
// reply reports (as child spans, in wire order) and the remainder, which
// stays the fetch's self time: framing, loopback transit, the session
// loop, recon decode and store insert. Stages are scaled down if they
// nominally exceed the round trip, so stage sum + self time equals the
// measured fetch time exactly.
func stageSpans(reply transport.FrameReply, rtt time.Duration) (names [4]string, durs [4]time.Duration) {
	names = [4]string{"server.queue", "server.render", "server.encode", "server.hop"}
	ms := [4]float64{reply.QueueMs, reply.RenderMs, reply.EncodeMs, reply.HopMs}
	sum := ms[0] + ms[1] + ms[2] + ms[3]
	scale := 1.0
	if rttMs := float64(rtt) / float64(time.Millisecond); sum > rttMs && sum > 0 {
		scale = rttMs / sum
	}
	left := rtt
	for i, m := range ms {
		d := time.Duration(m * scale * float64(time.Millisecond))
		if d > left {
			d = left
		}
		durs[i] = d
		left -= d
	}
	return names, durs
}

// AddFetch records one request's fetch span and its server-stage children.
func (r *Recorder) AddFetch(parent int, start time.Time, rtt time.Duration, reply transport.FrameReply, attrs FetchAttrs) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.fetches++
	over := r.fetches > maxFetchSpans
	if over {
		r.dropped++
	}
	r.mu.Unlock()
	if over {
		return
	}
	attrs.I, attrs.J = reply.Point.I, reply.Point.J
	attrs.Kind, attrs.Rung, attrs.Origin = uint8(reply.Kind), uint8(reply.Rung), uint8(reply.Origin)
	attrs.Bytes = len(reply.Data)
	id := r.Add(parent, "fetch", start, rtt, &attrs)
	names, durs := stageSpans(reply, rtt)
	// The stages sit at the end of the server-side interval; the exact
	// offset inside the round trip is not observable from outside.
	at := start.Add((rtt - durs[0] - durs[1] - durs[2] - durs[3]) / 2)
	for i, d := range durs {
		if d > 0 {
			r.Add(id, names[i], at, d, nil)
			at = at.Add(d)
		}
	}
}

// fillSelfTimes sets every span's self time: its duration minus the
// durations of its direct children.
func fillSelfTimes(spans []Span) {
	for i := range spans {
		spans[i].SelfUs = spans[i].DurUs
	}
	for _, s := range spans {
		if s.Parent > 0 && s.Parent <= len(spans) {
			spans[s.Parent-1].SelfUs -= s.DurUs
		}
	}
}

// traceFile is what the traced run writes out.
type traceFile struct {
	Workload string           `json:"workload"`
	Seed     int64            `json:"seed"`
	Dropped  int              `json:"spans_dropped"`
	Registry map[string]int64 `json:"registry"`
	Spans    []Span           `json:"spans"`
}

// WriteFile computes self times and writes the spans plus the registry
// snapshot as JSON.
func (r *Recorder) WriteFile(path, workload string, seed int64, registry map[string]int64) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	fillSelfTimes(r.spans)
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	err = json.NewEncoder(f).Encode(traceFile{Workload: workload, Seed: seed, Dropped: r.dropped, Registry: registry, Spans: r.spans})
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

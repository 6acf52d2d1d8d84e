package main

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"coterie/internal/server"
	"coterie/internal/trace"
	"coterie/internal/transport"
)

// udpBudget is the client's default wait on the datagram path before it
// falls back to TCP; lossRate is the relay's drop share per direction.
const (
	udpBudget = 50 * time.Millisecond
	lossRate  = 0.02
	tickHz    = trace.TickHz
)

// tally is what one player's generator saw in one measured window.
type tally struct {
	latMs  []float64 // per delivered frame
	lateMs []float64 // open loop: how late each tick's work began

	attempted, failed, frames, bytes, within int64
	hits, joins, renders, deltas, degraded   int64
	fallbacks                                int64

	queueMs                        float64 // summed over replies that waited or rendered
	renderMs, encodeMs, residualMs float64 // summed over rendered replies
	hitRTTMs                       float64 // summed over store-hit replies

	err error
}

// delivered books one checked frame and its latency.
func (t *tally) delivered(reply transport.FrameReply, lat time.Duration) {
	ms := float64(lat) / float64(time.Millisecond)
	t.latMs = append(t.latMs, ms)
	t.frames++
	t.bytes += int64(len(reply.Data))
	if ms <= budgetMs {
		t.within++
	}
	if reply.Kind == transport.FrameDelta {
		t.deltas++
	}
	if reply.Rung != transport.RungExact {
		t.degraded++
	}
	// A reply that rendered is a store miss, one that only queued joined
	// another request's render, one with neither hit the store.
	switch {
	case reply.RenderMs > 0:
		t.renders++
		t.queueMs += reply.QueueMs
		t.renderMs += reply.RenderMs
		t.encodeMs += reply.EncodeMs
		t.residualMs += ms - reply.QueueMs - reply.RenderMs - reply.EncodeMs - reply.HopMs
	case reply.QueueMs > 0:
		t.joins++
		t.queueMs += reply.QueueMs
	default:
		t.hits++
		t.hitRTTMs += ms
	}
}

func (t *tally) merge(o *tally) {
	t.latMs = append(t.latMs, o.latMs...)
	t.lateMs = append(t.lateMs, o.lateMs...)
	t.attempted += o.attempted
	t.failed += o.failed
	t.frames += o.frames
	t.bytes += o.bytes
	t.within += o.within
	t.hits += o.hits
	t.joins += o.joins
	t.renders += o.renders
	t.deltas += o.deltas
	t.degraded += o.degraded
	t.fallbacks += o.fallbacks
	t.queueMs += o.queueMs
	t.renderMs += o.renderMs
	t.encodeMs += o.encodeMs
	t.residualMs += o.residualMs
	t.hitRTTMs += o.hitRTTMs
	t.err = errors.Join(t.err, o.err)
}

// window is one measured round: the players' merged tally plus the
// process-wide costs of the interval.
type window struct {
	tally
	wallS  float64
	cpuMs  float64
	spinMs float64
}

// phase is a set of rounds run with one tracing setting, plus what the
// harness could see of the system around them.
type phase struct {
	rounds     []window
	setupS     []float64 // per set-up: host start, pre-render, dial
	prerenderS float64
	rendered   int64            // Server.Stats rendered, summed over hosts
	store      HostCounts       // last host's store
	registry   map[string]int64 // summed over traced hosts and clients
	udp        server.UDPStats  // summed over players
	wireDown   int64            // relay payload bytes, server to clients
	wireUp     int64
	dropped    int64 // datagrams the relay dropped
	live       []*server.LiveReport
}

func (ph *phase) addRegistry(m map[string]int64) {
	if m == nil {
		return
	}
	if ph.registry == nil {
		ph.registry = make(map[string]int64)
	}
	for k, v := range m {
		ph.registry[k] += v
	}
}

func (ph *phase) closeHost(h *Host) {
	c := h.Counts()
	ph.rendered += c.Rendered
	ph.store = c
	ph.addRegistry(h.Registry())
}

// run is one workload invocation's shared state.
type run struct {
	wl     Workload
	sut    *SUT
	sz     Sizing
	stream *Stream
	rec    *Recorder // nil unless -trace 1
	root   int       // the workload span
}

// measure runs one phase of the workload. It returns the last host, still
// serving, for the output check; the caller closes it.
func (r *run) measure(traced bool) (*phase, *Host, error) {
	rec := r.rec
	if !traced {
		rec = nil
	}
	rounds, seconds := r.sz.Rounds, r.sz.OpenSeconds
	if r.rec != nil { // a -trace 1 run: each half gets the traced share of the work
		rounds, seconds = r.sz.TracedRounds, seconds/2
	}
	switch r.wl.Name {
	case "cold_scatter", "frontier_walk":
		return r.coldRounds(rec, traced, rounds)
	case "warm_walk":
		return r.warmRounds(rec, traced, rounds)
	case "udp_push_lossy":
		return r.udpWindow(rec, traced, seconds)
	case "client_replay":
		return r.replayWindow(traced, seconds)
	}
	return nil, nil, fmt.Errorf("unknown workload %q", r.wl.Name)
}

func (r *run) dialAll(h *Host) ([]*Session, error) {
	sessions := make([]*Session, r.sz.Players)
	for p := range sessions {
		s, err := h.Dial(p)
		if err != nil {
			closeSessions(sessions)
			return nil, err
		}
		sessions[p] = s
	}
	return sessions, nil
}

func closeSessions(sessions []*Session) {
	for _, s := range sessions {
		if s != nil {
			s.Close()
		}
	}
}

// coldRounds runs the stream once per round, each round against a fresh
// server.New(env) with an empty store and pano cache.
func (r *run) coldRounds(rec *Recorder, traced bool, rounds int) (*phase, *Host, error) {
	ph := &phase{}
	var last *Host
	for k := 0; k < rounds; k++ {
		if last != nil {
			ph.closeHost(last)
			last.Close()
		}
		t0 := time.Now()
		h, err := r.sut.StartHost(traced, false)
		if err != nil {
			return nil, nil, err
		}
		last = h
		sessions, err := r.dialAll(h)
		if err != nil {
			h.Close()
			return nil, nil, err
		}
		ph.setupS = append(ph.setupS, time.Since(t0).Seconds())
		w := r.closedRound(sessions, k, 1, rec)
		closeSessions(sessions)
		ph.rounds = append(ph.rounds, w)
		if w.err != nil {
			h.Close()
			return nil, nil, w.err
		}
	}
	ph.closeHost(last)
	return ph, last, nil
}

// warmHost starts a host with every stream point pre-rendered on P workers.
func (r *run) warmHost(ph *phase, traced, push bool) (*Host, error) {
	h, err := r.sut.StartHost(traced, push)
	if err != nil {
		return nil, err
	}
	t0 := time.Now()
	if err := h.Prerender(distinctPoints(r.stream.Players), r.sz.Players); err != nil {
		h.Close()
		return nil, err
	}
	ph.prerenderS = time.Since(t0).Seconds()
	return h, nil
}

// warmRounds pre-renders the streams, walks one unmeasured lap (which fills
// the sessions' held references and the store's delta cache), then measures
// rounds of a fixed number of laps on the same sessions.
func (r *run) warmRounds(rec *Recorder, traced bool, rounds int) (*phase, *Host, error) {
	ph := &phase{}
	t0 := time.Now()
	h, err := r.warmHost(ph, traced, false)
	if err != nil {
		return nil, nil, err
	}
	// Deferred first so it runs last: Host.Close waits for the sessions.
	defer func() {
		if err != nil {
			h.Close()
		}
	}()
	sessions, err := r.dialAll(h)
	if err != nil {
		return nil, nil, err
	}
	defer closeSessions(sessions)
	ph.setupS = append(ph.setupS, time.Since(t0).Seconds())
	if err = r.closedRound(sessions, 0, 1, nil).err; err != nil {
		return nil, nil, err
	}
	for k := 0; k < rounds; k++ {
		w := r.closedRound(sessions, k, r.sz.WarmLapsPerRnd, rec)
		ph.rounds = append(ph.rounds, w)
		if err = w.err; err != nil {
			return nil, nil, err
		}
	}
	ph.closeHost(h)
	return ph, h, nil
}

// closedRound is closed-loop window k: every player walks its stream (its
// k-th slice, where the stream is cut into one per round) laps times on its
// own session, sending the next request only after the previous reply.
func (r *run) closedRound(sessions []*Session, k, laps int, rec *Recorder) window {
	w := window{spinMs: hostSpinMs()}
	tallies := make([]tally, len(sessions))
	start := make(chan struct{})
	var wg sync.WaitGroup
	t0 := time.Now()
	span := rec.Add(r.root, "round", t0, 0, nil)
	for p, sess := range sessions {
		wg.Add(1)
		go func(p int, sess *Session) {
			defer wg.Done()
			ta := &tallies[p]
			reqs := r.stream.Players[p]
			if n := len(reqs) / r.stream.Slices; n < len(reqs) {
				reqs = reqs[k%r.stream.Slices*n:][:n]
			}
			ta.latMs = make([]float64, 0, laps*len(reqs))
			<-start
			seq := 0
			for lap := 0; lap < laps; lap++ {
				for _, rq := range reqs {
					seq++
					ta.attempted++
					t := time.Now()
					reply, shed, err := sess.Fetch(rq.Pt)
					rtt := time.Since(t)
					if err == nil {
						err = CheckReply(reply, rq.Pt)
					}
					if err != nil {
						ta.failed++
						if shed {
							continue
						}
						ta.err = fmt.Errorf("player %d request %d %v: %w", p, seq, rq.Pt, err)
						return
					}
					ta.delivered(reply, rtt)
					rec.AddFetch(span, t, rtt, reply, FetchAttrs{Player: p, Seq: seq, Path: "tcp"})
				}
			}
		}(p, sess)
	}
	cpu0 := cpuMs()
	t0 = time.Now()
	close(start)
	wg.Wait()
	wall := time.Since(t0)
	w.cpuMs = cpuMs() - cpu0
	w.wallS = wall.Seconds()
	rec.SetDur(span, t0, wall)
	for i := range tallies {
		w.merge(&tallies[i])
	}
	return w
}

// udpWindow is the open-loop datagram workload: every player ticks at 60 Hz
// through its trace — FI upload, and a UDP-first fetch with TCP fallback —
// through a lossy relay, and each fetch is timed from its tick's due time.
func (r *run) udpWindow(rec *Recorder, traced bool, seconds float64) (*phase, *Host, error) {
	ph := &phase{}
	t0 := time.Now()
	h, err := r.warmHost(ph, traced, true)
	if err != nil {
		return nil, nil, err
	}
	// Deferred first so it runs last: Host.Close waits for the sessions.
	defer func() {
		if err != nil {
			h.Close()
		}
	}()
	relay, err := StartRelay(h.Addr, lossRate, int64(r.stream.Hash>>1))
	if err != nil {
		return nil, nil, err
	}
	defer relay.Close()
	sessions, err := r.dialAll(h)
	if err != nil {
		return nil, nil, err
	}
	defer closeSessions(sessions)
	chans := make([]*Datagram, r.sz.Players)
	for p := range chans {
		if chans[p], err = DialDatagram(relay.Addr(), p); err != nil {
			return nil, nil, err
		}
		defer chans[p].Close()
	}
	ph.setupS = append(ph.setupS, time.Since(t0).Seconds())

	ticks := int(seconds * tickHz)
	w := window{spinMs: hostSpinMs()}
	tallies := make([]tally, r.sz.Players)
	var wg sync.WaitGroup
	cpu0 := cpuMs()
	start := time.Now().Add(20 * time.Millisecond)
	span := rec.Add(r.root, "round", start, 0, nil)
	for p := range chans {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			ta := &tallies[p]
			reqs := r.stream.Players[p]
			if len(reqs) > ticks {
				reqs = reqs[:ticks]
			}
			// The tick's FI upload starts before its fetch on the same socket
			// but does not block it, as in the real client (liveFISync syncs on
			// its own goroutine): a lost FI round waits out its timeout beside
			// the fetches, and the ticks that pass meanwhile upload nothing.
			fi := make(chan int, 1)
			var fiDone sync.WaitGroup
			fiDone.Add(1)
			go func() {
				defer fiDone.Done()
				for i := range fi {
					chans[p].Sync(p, uint32(i+1), reqs[i].Pos, udpBudget)
				}
			}()
			defer fiDone.Wait()
			defer close(fi)
			// Players tick on independent vsync clocks: spread their phases.
			phase := time.Duration(p) * time.Second / tickHz / time.Duration(len(chans))
			for i, rq := range reqs {
				due := start.Add(phase + time.Duration(i)*time.Second/tickHz)
				time.Sleep(time.Until(due))
				ta.lateMs = append(ta.lateMs, float64(time.Since(due))/float64(time.Millisecond))
				ta.attempted++
				select {
				case fi <- i:
				default:
				}
				reply := transport.FrameReply{Point: rq.Pt}
				path := "udp"
				data, ok, err := chans[p].Fetch(rq.Pt, udpBudget)
				reply.Data = data
				if !ok {
					path = "tcp"
					ta.fallbacks++
					reply, _, err = sessions[p].Fetch(rq.Pt)
					if err == nil {
						err = CheckReply(reply, rq.Pt)
					}
				}
				lat := time.Since(due)
				if err != nil {
					ta.failed++
					ta.err = fmt.Errorf("player %d tick %d %v: %w", p, i, rq.Pt, err)
					return
				}
				ta.delivered(reply, lat)
				rec.AddFetch(span, due, lat, reply, FetchAttrs{Player: p, Seq: i + 1, Path: path})
			}
		}(p)
	}
	wg.Wait()
	wall := time.Since(start)
	w.cpuMs = cpuMs() - cpu0
	w.wallS = wall.Seconds()
	rec.SetDur(span, start, wall)
	for i := range tallies {
		w.merge(&tallies[i])
	}
	for _, c := range chans {
		st := c.Stats()
		ph.udp.PushedRecv += st.PushedRecv
		ph.udp.PushedUsed += st.PushedUsed
		ph.udp.PushServes += st.PushServes
		ph.udp.NacksSent += st.NacksSent
		ph.udp.FetchHits += st.FetchHits
		ph.udp.Reassembly.Recovered += st.Reassembly.Recovered
		ph.udp.Reassembly.Corrupt += st.Reassembly.Corrupt
		ph.udp.Reassembly.DroppedDup += st.Reassembly.DroppedDup
	}
	ph.wireDown, ph.wireUp = relay.DownBytes.Load(), relay.UpBytes.Load()
	ph.dropped = relay.UpDropped.Load() + relay.DownDropped.Load()
	// bytes_per_frame on this workload is true downlink wire bytes.
	w.bytes = ph.wireDown
	ph.rounds = append(ph.rounds, w)
	if err = w.err; err != nil {
		return nil, nil, err
	}
	if n := ph.udp.Reassembly.Corrupt; n != 0 {
		err = fmt.Errorf("reassembler delivered %d corrupt frames", n)
		return nil, nil, err
	}
	ph.closeHost(h)
	return ph, h, nil
}

// replayWindow runs P full clients in real time against a cold server.
func (r *run) replayWindow(traced bool, seconds float64) (*phase, *Host, error) {
	ph := &phase{}
	t0 := time.Now()
	h, err := r.sut.StartHost(traced, false)
	if err != nil {
		return nil, nil, err
	}
	ph.setupS = append(ph.setupS, time.Since(t0).Seconds())
	ticks := int(seconds * tickHz)
	w := window{spinMs: hostSpinMs()}
	reports := make([]*server.LiveReport, r.sz.Players)
	regs := make([]map[string]int64, r.sz.Players)
	errs := make([]error, r.sz.Players)
	var wg sync.WaitGroup
	cpu0 := cpuMs()
	t0 = time.Now()
	for p, tr := range r.stream.Traces {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			part := *tr
			if len(part.Pos) > ticks {
				part.Pos, part.Yaw = part.Pos[:ticks], part.Yaw[:ticks] // Party fills both per tick
			}
			reports[p], regs[p], errs[p] = h.RunLive(&part, p, traced)
		}(p)
	}
	wg.Wait()
	w.wallS = time.Since(t0).Seconds()
	w.cpuMs = cpuMs() - cpu0
	if err := errors.Join(errs...); err != nil {
		h.Close()
		return nil, nil, err
	}
	for p, rep := range reports {
		w.latMs = append(w.latMs, rep.FetchLatenciesMs...)
		w.frames += rep.Fetches
		w.bytes += rep.BytesFetched
		ph.addRegistry(regs[p])
	}
	w.attempted = w.frames
	for _, ms := range w.latMs {
		if ms <= budgetMs {
			w.within++
		}
	}
	ph.live = reports
	ph.rounds = append(ph.rounds, w)
	ph.closeHost(h)
	return ph, h, nil
}

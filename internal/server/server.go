// Package server implements the Coterie frame server over real TCP: it
// pre-renders and pre-encodes panoramic far-BE frames for grid points
// (memoised on first request — the paper renders offline; lazy
// memoisation computes the identical frames on demand) and synchronises
// foreground interactions between connected clients (§5.1). The client
// side of the protocol is internal/client.
package server

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"math"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"coterie/internal/codec"
	"coterie/internal/core"
	"coterie/internal/fisync"
	"coterie/internal/geom"
	"coterie/internal/obs"
	"coterie/internal/sched"
	"coterie/internal/transport"
)

// Server serves far-BE frames and FI sync for one prepared game
// environment. It is safe for concurrent connections.
type Server struct {
	env *core.Env

	// DrainTimeout bounds the graceful-shutdown wait for in-flight
	// sessions once the listener closes; after it, open connections are
	// force-closed. 0 means wait indefinitely. Set before Serve.
	DrainTimeout time.Duration
	// Logger receives the server's structured lifecycle and session logs;
	// nil means slog.Default(). Set before Serve.
	Logger *slog.Logger

	// store caches encoded far-BE frames: byte-bounded with exact LRU
	// eviction, and singleflight per grid point. Budget via
	// SetStoreBudget.
	store *frameStore

	// panos caches decoded reconstructions (what a client that decoded the
	// served bytes sees), filled by reconFor the first time the delta path
	// needs one — never on the miss. The delta path encodes residuals
	// between reconstructions.
	panos *panoCache

	// sched gates every render leader: an EDF queue with a concurrency
	// knee (one render per schedulable core) and admission control, so a
	// request whose vsync deadline is imminent overtakes prerender and
	// deadline-less traffic instead of queueing FIFO behind it.
	sched *sched.Scheduler

	// pushOn enables trajectory-driven server push on the datagram frame
	// path (off by default: pushes are opt-in via -push, and only reach
	// clients that subscribed with the want-push flag).
	pushOn atomic.Bool

	mu  sync.Mutex // guards hub
	hub *fisync.Hub

	// Stats
	served   atomic.Int64
	rendered atomic.Int64

	sessMu   sync.Mutex
	sessions map[net.Conn]struct{}
	history  []SessionStats

	// Observability (zero values when not instrumented).
	obs serverObs
	tm  *transport.Metrics
}

// serverObs holds the server's registry instruments; all fields are
// nil-safe, so the uninstrumented server pays one branch per event.
type serverObs struct {
	framesServed   *obs.Counter
	framesRendered *obs.Counter
	frameStoreHits *obs.Counter
	renderShared   *obs.Counter
	bytesSent      *obs.Counter
	sessionsTotal  *obs.Counter
	sessionErrors  *obs.Counter
	sessionsActive *obs.Gauge
	renderMs       *obs.Histogram
	udpDatagrams   *obs.Counter
	// Malformed / stale / overflow drops are split so the datagram frame
	// path is debuggable from /metrics: a parse failure, a request or NACK
	// with no session or sent frame behind it, and a frame request dropped
	// because every UDP request worker was busy are three very different
	// operator stories.
	udpDroppedMalformed *obs.Counter
	udpDroppedStale     *obs.Counter
	udpDroppedOverflow  *obs.Counter
	udpBytesIn          *obs.Counter
	udpBytesOut         *obs.Counter

	// Datagram frame path: unsolicited pushes, pacer skips, UDP frame
	// requests served, and NACK-triggered chunk retransmits.
	pushFrames     *obs.Counter
	pushBytes      *obs.Counter
	pushSkips      *obs.Counter
	udpFrameReqs   *obs.Counter
	udpRetransmits *obs.Counter
	udpNacks       *obs.Counter
	deltaFrames    *obs.Counter
	deltaSaved     *obs.Counter

	// Deadline scheduling and the quality-degrade ladder.
	degradeStale   *obs.Counter
	deadlineMet    *obs.Counter
	deadlineMisses *obs.Counter
	deadlineMissMs *obs.Histogram
	udpSendErrors  *obs.Counter
}

// SetStoreBudget bounds the frame store to the given number of encoded
// bytes (<= 0 means unbounded), evicting least-recently-used frames
// immediately and on every insert thereafter. Safe to call at any time.
func (s *Server) SetStoreBudget(n int64) { s.store.SetBudget(n) }

// StoreStats reports the frame store's resident bytes, cumulative
// evictions, and cached frame count.
func (s *Server) StoreStats() (bytes, evictions int64, frames int) {
	return s.store.Bytes(), s.store.Evictions(), s.store.Len()
}

// Instrument mirrors the server's activity into a registry under the
// "server." namespace and attaches per-message-type transport metrics to
// subsequently accepted sessions. Call before Serve; Instrument(nil) is a
// no-op.
func (s *Server) Instrument(r *obs.Registry) {
	if r == nil {
		return
	}
	s.obs = serverObs{
		framesServed:        r.Counter("server.frames_served"),
		framesRendered:      r.Counter("server.frames_rendered"),
		frameStoreHits:      r.Counter("server.frame_store_hits"),
		renderShared:        r.Counter("server.renders_shared"),
		bytesSent:           r.Counter("server.frame_bytes_sent"),
		sessionsTotal:       r.Counter("server.sessions_total"),
		sessionErrors:       r.Counter("server.session_errors"),
		sessionsActive:      r.Gauge("server.sessions_active"),
		renderMs:            r.Histogram("server.render_ms"),
		udpDatagrams:        r.Counter("server.udp.datagrams"),
		udpDroppedMalformed: r.Counter("server.udp.dropped_malformed"),
		udpDroppedStale:     r.Counter("server.udp.dropped_stale"),
		udpDroppedOverflow:  r.Counter("server.udp.dropped_overflow"),
		udpBytesIn:          r.Counter("server.udp.bytes_in"),
		udpBytesOut:         r.Counter("server.udp.bytes_out"),
		pushFrames:          r.Counter("server.udp.push_frames"),
		pushBytes:           r.Counter("server.udp.push_bytes"),
		pushSkips:           r.Counter("server.udp.push_skips"),
		udpFrameReqs:        r.Counter("server.udp.frame_reqs"),
		udpRetransmits:      r.Counter("server.udp.retransmits"),
		udpNacks:            r.Counter("server.udp.nacks"),
		deltaFrames:         r.Counter("server.delta_frames"),
		deltaSaved:          r.Counter("server.delta_bytes_saved"),
		degradeStale:        r.Counter("server.degrade_stale"),
		deadlineMet:         r.Counter("server.deadline_met"),
		deadlineMisses:      r.Counter("server.deadline_misses"),
		deadlineMissMs:      r.Histogram("server.deadline_miss_ms"),
		udpSendErrors:       r.Counter("server.udp_send_errors"),
	}
	s.store.instrument(
		r.Gauge("server.store_bytes"),
		r.Counter("server.evictions"),
	)
	s.sched.Instrument(r, "server.sched")
	s.tm = transport.NewMetrics(r, "server.transport")
}

// logger returns the configured structured logger, defaulting to
// slog.Default().
func (s *Server) logger() *slog.Logger {
	if s.Logger != nil {
		return s.Logger
	}
	return slog.Default()
}

// maxSessionHistory bounds the retained per-session stats.
const maxSessionHistory = 256

// SessionStats describes one completed client session.
type SessionStats struct {
	Remote       string
	Player       uint8
	Game         string
	StartedAt    time.Time
	Duration     time.Duration
	FramesServed int64
	BytesSent    int64
	// Err is the terminal error, empty for a clean MsgBye teardown.
	Err string
}

// New creates a server for the environment.
func New(env *core.Env) *Server {
	return &Server{
		env:      env,
		store:    newFrameStore(),
		panos:    newPanoCache(defaultPanoCacheCap),
		sched:    sched.New(sched.Config{}),
		hub:      fisync.NewHub(),
		sessions: make(map[net.Conn]struct{}),
	}
}

// SetPushEnabled toggles trajectory-driven frame push on the datagram
// path (off by default). Pushes only reach UDP sessions that subscribed
// with the want-push flag, so a client that only syncs FI never sees one.
// Safe to call at any time.
func (s *Server) SetPushEnabled(on bool) { s.pushOn.Store(on) }

// errOverloaded is the admission-control rejection: the render queue is
// past its bound and the degrade ladder found nothing servable. Sessions
// deliver it as MsgError, so the connection stays usable and the client
// decides whether to retry.
var errOverloaded = errors.New("overloaded: render queue full")

// frameReq is one frame request: the grid point plus the request context
// serve and frameFor consume. The zero context (prerender, tests) is
// deadline-less.
type frameReq struct {
	pt geom.GridPoint
	// deadlineMs is the request's absolute deadline on this server's clock
	// (sched.NowMs; <= 0: none), set by newFrameReq.
	deadlineMs float64
	// refs is the requesting TCP client session's holdings; nil (UDP,
	// prerender) gets the exact intra frame — see serve.
	refs *transport.HeldRefs[struct{}]
}

// newFrameReq turns a decoded request, received at recvMs on this server's
// clock, into a frameReq. It is the one place a wire budget becomes a
// deadline — receive time plus budget, budget 0 none — for both ways in:
// the TCP session and the UDP request. No other host's clock is read.
func newFrameReq(r transport.FrameRequest, recvMs float64) frameReq {
	fr := frameReq{pt: r.Point}
	if r.BudgetUs > 0 {
		fr.deadlineMs = recvMs + float64(r.BudgetUs)/1000
	}
	return fr
}

// frameResult is what every path — TCP session, UDP request, prerender —
// gets back for a frameReq: the reply about to go on the wire. frameFor
// fills Data, the stage spans and rendered; serve adds Point and, off the
// ladder or the delta path, Rung, Kind and Ref; frameReplyMsg echoes ReqID.
type frameResult struct {
	transport.FrameReply
	rendered bool // this call ray-cast and encoded the frame
}

// FrameFor returns the encoded far-BE panorama for a grid point,
// rendering and encoding it on first use.
func (s *Server) FrameFor(pt geom.GridPoint) ([]byte, error) {
	res, err := s.frameFor(frameReq{pt: pt})
	return res.Data, err
}

// serve answers one frame request and is the only place a served frame is
// accounted: the TCP session loop and the UDP request path are decode →
// serve → encode around it.
//
// A request that brings its session's holdings (req.refs, TCP clients only)
// gets the degrade ladder and delta coding: a deadline the scheduler
// projects as already at risk takes the stale rung when a calibrated
// substitute is cached (a store hit needs no such rescue — it is the
// substitute), the same fallback rescues a request shed by admission
// control, and an exact frame is re-coded against the best reference the
// client holds when that wins bytes. Without holdings the reply is always
// the exact intra frame: a substitute or a delta would poison the UDP
// client's by-point retained store.
func (s *Server) serve(req frameReq) (frameResult, error) {
	recvMs := sched.NowMs()
	var res frameResult
	ladder := req.refs != nil
	atRisk := ladder && req.deadlineMs > 0 && s.sched.AtRisk(recvMs, req.deadlineMs)
	if !atRisk || !s.staleRung(req.pt, &res) {
		var err error
		res, err = s.frameFor(req)
		shed := ladder && errors.Is(err, errOverloaded)
		if err != nil && !(shed && s.staleRung(req.pt, &res)) {
			return res, err
		}
	}
	if ladder && res.Rung == transport.RungExact {
		if d, refPt, ok := s.deltaFor(req.pt, res.Data, req.refs); ok {
			s.obs.deltaFrames.Inc()
			s.obs.deltaSaved.Add(int64(len(res.Data) - len(d)))
			res.Data, res.Kind, res.Ref = d, transport.FrameDelta, refPt
		}
	}
	// The client holds what this reply makes a reference by the same rule
	// once it reads it, and it reads it before it sends its next request.
	if ladder && res.IsReference() {
		req.refs.Hold(req.pt, struct{}{})
	}
	res.Point = req.pt

	// One served frame per reply; UDP chunks, retransmits and pushes
	// (server.udp.push_frames) are not serves.
	s.served.Add(1)
	s.obs.framesServed.Inc()
	s.obs.bytesSent.Add(int64(len(res.Data)))
	// Deadline accounting is against the reply's send time: network
	// return time belongs to the client's RTT model, not the server's
	// deadline compliance.
	if req.deadlineMs > 0 {
		if late := sched.NowMs() - req.deadlineMs; late > 0 {
			s.obs.deadlineMisses.Inc()
			s.obs.deadlineMissMs.Observe(late)
		} else {
			s.obs.deadlineMet.Inc()
		}
	}
	return res, nil
}

// frameFor is the one frame lookup, shared by serve, FrameFor and
// PrerenderRegion: store hit, singleflight join or render. The stored
// frame is a pure function of the grid point — the exact ray-cast, encoded
// at the environment's CRF — whatever the request order or worker count.
// Concurrent calls for the same point share one render: the first caller
// renders (and reports render/encode spans), the rest block on its result
// (and report the wait as queue time), so rendered counts are exact and
// all callers share one buffer.
//
// Render leaders pass through the EDF scheduler: they wait for a slot in
// deadline order (the wait lands in QueueMs) and are shed with
// errOverloaded when admission control rejects them. Deadline-less
// callers take the slot gate too but sort last.
func (s *Server) frameFor(req frameReq) (frameResult, error) {
	var res frameResult
	pt := req.pt
	if !s.env.Game.Scene.Grid.In(pt) {
		return res, fmt.Errorf("server: grid point %v outside world", pt)
	}
	data, ok, c, leader := s.store.lookup(pt)
	if ok {
		s.obs.frameStoreHits.Inc()
		res.Data = data
		return res, nil
	}
	if !leader {
		s.obs.renderShared.Inc()
		waitStart := time.Now()
		<-c.done
		res.QueueMs = float64(time.Since(waitStart)) / float64(time.Millisecond)
		res.Data = c.data
		return res, c.err
	}

	queueMs, admitted := s.sched.Acquire(req.deadlineMs)
	if !admitted {
		s.store.complete(pt, c, nil, errOverloaded)
		return res, errOverloaded
	}
	res.QueueMs += queueMs
	data, renderMs, encodeMs, err := s.render(pt)
	s.sched.Release(renderMs + encodeMs) // zero (no observation) on error
	res.RenderMs, res.EncodeMs = renderMs, encodeMs
	s.obs.renderMs.Observe(renderMs + encodeMs)
	if err == nil {
		s.rendered.Add(1)
		s.obs.framesRendered.Inc()
	}
	s.store.complete(pt, c, data, err)
	res.Data, res.rendered = data, err == nil
	return res, err
}

// render ray-casts and encodes the far-BE panorama for an in-grid point,
// reporting the render and encode spans separately (wall milliseconds;
// both zero on error).
func (s *Server) render(pt geom.GridPoint) (data []byte, renderMs, encodeMs float64, err error) {
	pos := s.env.Game.Scene.Grid.Pos(pt)
	leaf := s.env.Map.LeafAt(pos)
	if leaf == nil {
		return nil, 0, 0, fmt.Errorf("server: no leaf region at %v", pos)
	}
	renderStart := time.Now()
	pano := s.env.Renderer.Panorama(s.env.Game.Scene.EyeAt(pos), leaf.Radius, math.Inf(1), nil)
	encodeStart := time.Now()
	data = codec.Encode(pano, s.env.CRF)
	s.env.Renderer.ReleaseGray(pano) // encoded copy taken; recycle the raster
	end := time.Now()
	renderMs = float64(encodeStart.Sub(renderStart)) / float64(time.Millisecond)
	encodeMs = float64(end.Sub(encodeStart)) / float64(time.Millisecond)
	return data, renderMs, encodeMs, nil
}

// Stats returns (frames served, frames rendered).
func (s *Server) Stats() (served, rendered int64) {
	return s.served.Load(), s.rendered.Load()
}

// Sessions returns the number of open sessions and a copy of the
// completed-session history (most recent last).
func (s *Server) Sessions() (active int, completed []SessionStats) {
	s.sessMu.Lock()
	defer s.sessMu.Unlock()
	return len(s.sessions), append([]SessionStats(nil), s.history...)
}

// Serve accepts connections until the listener closes.
func (s *Server) Serve(ln net.Listener) error {
	return s.ServeContext(context.Background(), ln)
}

// ServeContext accepts connections until the listener closes or the
// context is cancelled, then drains: it stops accepting, waits up to
// DrainTimeout for in-flight sessions to finish, and force-closes the
// rest. A cancelled context returns ctx.Err(); a closed listener returns
// nil. A listener-close failure during context-triggered shutdown is
// logged and joined into the returned error rather than swallowed.
func (s *Server) ServeContext(ctx context.Context, ln net.Listener) error {
	var closeMu sync.Mutex
	var closeErr error
	stop := context.AfterFunc(ctx, func() {
		err := ln.Close()
		closeMu.Lock()
		closeErr = err
		closeMu.Unlock()
	})
	defer stop()

	var wg sync.WaitGroup
	var acceptErr error
	for {
		conn, err := ln.Accept()
		if err != nil {
			if !errors.Is(err, net.ErrClosed) {
				acceptErr = err
			}
			break
		}
		s.sessMu.Lock()
		s.sessions[conn] = struct{}{}
		s.sessMu.Unlock()
		s.obs.sessionsTotal.Inc()
		s.obs.sessionsActive.Add(1)
		wg.Add(1)
		go func() {
			defer wg.Done()
			st := s.handle(conn)
			conn.Close()
			s.sessMu.Lock()
			delete(s.sessions, conn)
			s.history = append(s.history, st)
			if len(s.history) > maxSessionHistory {
				s.history = s.history[len(s.history)-maxSessionHistory:]
			}
			s.sessMu.Unlock()
			s.obs.sessionsActive.Add(-1)
			if st.Err != "" {
				s.obs.sessionErrors.Inc()
				s.logger().Warn("session ended with error",
					"remote", st.Remote, "player", st.Player,
					"duration", st.Duration.Round(time.Millisecond), "err", st.Err)
			} else {
				s.logger().Info("session closed",
					"remote", st.Remote, "player", st.Player,
					"frames", st.FramesServed,
					"duration", st.Duration.Round(time.Millisecond))
			}
		}()
	}

	s.drain(&wg)

	closeMu.Lock()
	lnCloseErr := closeErr
	closeMu.Unlock()
	if lnCloseErr != nil && !errors.Is(lnCloseErr, net.ErrClosed) {
		s.logger().Warn("listener close failed during drain", "err", lnCloseErr)
	} else {
		lnCloseErr = nil
	}
	if acceptErr != nil {
		return errors.Join(acceptErr, lnCloseErr)
	}
	if err := ctx.Err(); err != nil {
		return errors.Join(err, lnCloseErr)
	}
	return lnCloseErr
}

// drain waits for in-flight sessions, force-closing them after the
// configured timeout.
func (s *Server) drain(wg *sync.WaitGroup) {
	var killer *time.Timer
	if s.DrainTimeout > 0 {
		killer = time.AfterFunc(s.DrainTimeout, func() {
			s.sessMu.Lock()
			for conn := range s.sessions {
				conn.Close()
			}
			s.sessMu.Unlock()
		})
	}
	wg.Wait()
	if killer != nil {
		killer.Stop()
	}
}

// handle runs one client session and reports its stats. The terminal
// error, if any, lands in the returned stats.
func (s *Server) handle(nc net.Conn) SessionStats {
	st := SessionStats{Remote: nc.RemoteAddr().String(), StartedAt: time.Now()}
	err := s.session(nc, &st)
	st.Duration = time.Since(st.StartedAt)
	if err != nil {
		st.Err = err.Error()
	}
	return st
}

func (s *Server) session(nc net.Conn, st *SessionStats) error {
	c := transport.NewConn(nc)
	c.Instrument(s.tm)

	m, err := c.Recv()
	if err != nil {
		return err
	}
	if m.Type != transport.MsgHello {
		return fmt.Errorf("server: expected hello, got %d", m.Type)
	}
	hello, err := transport.DecodeHello(m.Payload)
	if err != nil {
		return err
	}
	st.Player, st.Game = hello.Player, hello.Game
	if hello.Game != s.env.Game.Spec.Name {
		return c.Send(errMsg(fmt.Sprintf("server hosts %q, client wants %q", s.env.Game.Spec.Name, hello.Game)))
	}
	if err := c.Send(transport.Message{Type: transport.MsgHello, Payload: m.Payload}); err != nil {
		return err
	}

	// refs is the set of frames this client holds, the foundation of the
	// delta path: serve and the client apply one rule to the same replies.
	refs := &transport.HeldRefs[struct{}]{}
	for {
		m, err := c.Recv()
		if err != nil {
			return err
		}
		switch m.Type {
		case transport.MsgFrameRequest:
			req, err := transport.DecodeFrameRequest(m.Payload)
			if err != nil {
				return err
			}
			fr := newFrameReq(req, sched.NowMs())
			fr.refs = refs
			res, err := s.serve(fr)
			if err != nil {
				if err := c.Send(errMsg(err.Error())); err != nil {
					return err
				}
				continue
			}
			st.FramesServed++
			st.BytesSent += int64(len(res.Data))
			if err := c.Send(frameReplyMsg(req, res)); err != nil {
				return err
			}
		case transport.MsgBye:
			return nil
		default:
			return fmt.Errorf("server: unexpected message %d", m.Type)
		}
	}
}

// frameReplyMsg frames res as the reply to req, echoing the request's id.
func frameReplyMsg(req transport.FrameRequest, res frameResult) transport.Message {
	res.ReqID = req.ReqID
	return transport.Message{Type: transport.MsgFrameReply, Payload: transport.EncodeFrameReply(res.FrameReply)}
}

func errMsg(s string) transport.Message {
	return transport.Message{Type: transport.MsgError, Payload: []byte(s)}
}

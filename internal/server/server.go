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

	"coterie/internal/cluster"
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

	// cluster, when set, shards grid-point ownership across nodes: the
	// staged pipeline proxies requests for remotely owned points to
	// their rendezvous owner (caching the reply — read-through
	// replication) and falls back to rendering locally when the owner
	// is down or the hop does not fit the deadline. nil (the default)
	// is standalone serving. Set before Serve via SetCluster.
	cluster *cluster.Cluster

	// pushOn enables trajectory-driven server push on the datagram frame
	// path (off by default: pushes are opt-in via -push, and only reach
	// clients that subscribed with the want-push flag).
	pushOn atomic.Bool

	mu  sync.Mutex // guards hub
	hub *fisync.Hub

	// sigQueries pools the scene queries of the stale rung's near-set
	// signatures (nearSig).
	sigQueries sync.Pool

	// Stats
	served   atomic.Int64
	rendered atomic.Int64

	sessMu   sync.Mutex
	sessions map[net.Conn]struct{}
	history  []SessionStats

	// Observability (zero values when not instrumented).
	obs serverObs
	tm  *transport.Metrics
	// slo, when set, tracks every served client frame against the
	// error-budget objective: a frame spends budget when it exceeded the
	// latency budget server-side, was served off a degrade rung, or was a
	// failover re-render. Set before Serve via SetSLO.
	slo *obs.SLO
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

	// Cluster serving: frames obtained via a peer fetch, local renders
	// of remotely owned points (owner down, hop at deadline risk, or
	// fetch failed), and peer requests this node answered.
	peerFrames       *obs.Counter
	peerFailovers    *obs.Counter
	peerFramesServed *obs.Counter

	// trace receives the server-side spans of distributed traces: the
	// hop span a proxying node records around its peer fetch, and the
	// serve span the owner records answering one. Local client serves are
	// not recorded here — the client's own ring has their display spans.
	trace *obs.TraceRing
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

		peerFrames:       r.Counter("server.peer_frames"),
		peerFailovers:    r.Counter("server.peer_failovers"),
		peerFramesServed: r.Counter("server.peer_frames_served"),

		trace: r.Trace(),
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

// SetCluster joins the server to a cluster membership view (nil leaves
// it standalone). Requests for grid points owned by a peer are proxied
// to the owner and the replies cached locally under the normal store
// budget; a down owner or a hop that no longer fits the deadline falls
// back to a local render. Call before Serve; the caller owns the
// cluster's lifecycle (Start/Close).
func (s *Server) SetCluster(c *cluster.Cluster) { s.cluster = c }

// SetSLO attaches an error-budget tracker fed by every served client
// frame: lateness against the tracker's latency budget, degrade-rung
// serves, and failover re-renders all count against the budget. nil (the
// default) disables tracking. Call before Serve.
func (s *Server) SetSLO(t *obs.SLO) { s.slo = t }

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
// serve and the staged pipeline consume. The zero context (prerender,
// tests) is deadline-less and untraced.
type frameReq struct {
	pt geom.GridPoint
	// deadlineMs is the request's absolute deadline on this server's clock
	// (sched.NowMs; <= 0: none), set by newFrameReq.
	deadlineMs float64
	// traceID is the distributed trace id of the client request driving
	// this lookup (obs.TraceID of the request's player and id; 0 untraced).
	// It is forwarded verbatim across the peer hop and stamped on the hop
	// span this node records, so the client span, this node's hop span,
	// and the owner's serve span join on one id.
	traceID uint64
	// fromPeer marks a request that already crossed the peer hop; it is
	// served locally, so a membership disagreement between nodes can never
	// chain proxy hops into a loop.
	fromPeer bool
	// refs is the requesting TCP client session's holdings; nil (peer hop,
	// UDP, prerender) gets the exact intra frame — see serve.
	refs *transport.HeldRefs[struct{}]
}

// newFrameReq turns a decoded request, received at recvMs on this server's
// clock, into a frameReq. It is the one place a wire budget becomes a
// deadline — receive time plus budget, budget 0 none — for every way in:
// the TCP client arm, the peer arm and the UDP request. No other host's
// clock is read.
func newFrameReq(r transport.FrameRequest, recvMs float64) frameReq {
	fr := frameReq{pt: r.Point, traceID: obs.TraceID(r.Player, r.ReqID)}
	if r.BudgetUs > 0 {
		fr.deadlineMs = recvMs + float64(r.BudgetUs)/1000
	}
	return fr
}

// frameResult is what every path — TCP session, UDP request, peer hop,
// prerender — gets back for a frameReq: the reply about to go on the wire.
// frameFor fills Data, Origin, the stage spans and rendered; serve adds
// Point, the recvMs / sendMs stamps and, off the ladder or the delta path,
// Rung, Kind and Ref; frameReplyMsg echoes ReqID.
type frameResult struct {
	transport.FrameReply
	rendered bool // this call ray-cast and encoded the frame
	// recvMs and sendMs bracket serve on this server's clock: deadline, SLO
	// and span accounting read them; they do not go on the wire.
	recvMs, sendMs float64
}

// FrameFor returns the encoded far-BE panorama for a grid point,
// rendering and encoding it on first use.
func (s *Server) FrameFor(pt geom.GridPoint) ([]byte, error) {
	res, err := s.frameFor(frameReq{pt: pt})
	return res.Data, err
}

// serve answers one frame request and is the only place a served frame is
// accounted: the TCP session loop (client and peer arm) and the UDP request
// path are decode → serve → encode around it.
//
// A request that brings its session's holdings (req.refs, TCP clients only)
// gets the degrade ladder and delta coding: a deadline the scheduler
// projects as already at risk takes the stale rung when a calibrated
// substitute is cached (a store hit needs no such rescue — it is the
// substitute), the same fallback rescues a request shed by admission
// control, and an exact frame is re-coded against the best reference the
// client holds when that wins bytes. Without holdings the reply is always
// the exact intra frame: a substitute or a delta would poison a peer's
// store or the UDP client's by-point retained store.
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
	res.Point, res.recvMs, res.sendMs = req.pt, recvMs, sched.NowMs()

	if req.fromPeer {
		// Not a client serve: the proxying node accounts the frame when it
		// relays it. The serve span joins that node's hop span and the
		// client's span on the forwarded trace id.
		s.obs.peerFramesServed.Inc()
		s.recordSpan(req.traceID, 2, res.recvMs, res.sendMs, &res)
		return res, nil
	}
	// One served frame per reply; UDP chunks, retransmits and pushes
	// (server.udp.push_frames) are not serves.
	s.served.Add(1)
	s.obs.framesServed.Inc()
	s.obs.bytesSent.Add(int64(len(res.Data)))
	// Deadline accounting is against the reply's send stamp: network
	// return time belongs to the client's RTT model, not the server's
	// deadline compliance.
	if req.deadlineMs > 0 {
		if late := res.sendMs - req.deadlineMs; late > 0 {
			s.obs.deadlineMisses.Inc()
			s.obs.deadlineMissMs.Observe(late)
		} else {
			s.obs.deadlineMet.Inc()
		}
	}
	// SLO accounting (a nil tracker ignores it): a frame spends error budget
	// when it was slow server-side, quality-degraded, or a failover
	// re-render — quality loss burns the budget exactly like lateness.
	s.slo.Observe(res.sendMs-res.recvMs <= s.slo.BudgetMs() &&
		res.Rung == transport.RungExact &&
		res.Origin != transport.OriginFailover)
	return res, nil
}

// frameFor is the one frame lookup, shared by serve, FrameFor and
// PrerenderRegion: store hit, singleflight join, peer fetch or local
// render. The stored frame is a pure function of the grid
// point — the exact ray-cast, encoded at the environment's CRF — whatever
// the request order, worker count or node. Concurrent calls for the same
// point share one render: the first caller renders (and reports
// render/encode spans), the rest block on its result (and report the wait
// as queue time), so rendered counts are exact and all callers share one
// buffer.
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
		// A store hit is a local serve even when the bytes were
		// originally peer-fetched: that is the read-through replication
		// paying off, and Origin describes this serve, not the history.
		s.obs.frameStoreHits.Inc()
		res.Data = data
		return res, nil
	}
	if !leader {
		s.obs.renderShared.Inc()
		waitStart := time.Now()
		<-c.done
		res.QueueMs = float64(time.Since(waitStart)) / float64(time.Millisecond)
		res.Data, res.Origin = c.data, c.origin
		return res, c.err
	}

	// Cluster ownership gate: a leader for a remotely owned point
	// proxies the request to its owner instead of rendering, unless the
	// owner is down or the hop itself is projected past the deadline —
	// then this node re-renders locally (byte-identical output, counted
	// as a failover).
	if cl := s.cluster; cl != nil && !req.fromPeer {
		if owner := cl.Owner(pt); owner != cl.Self() {
			if cl.Up(owner) && !s.sched.FetchAtRisk(sched.NowMs(), req.deadlineMs) {
				if s.fetchFromOwner(req, &res) {
					c.origin = res.Origin
					s.store.complete(pt, c, res.Data, nil)
					return res, nil
				}
			}
			res.Origin = transport.OriginFailover
			s.obs.peerFailovers.Inc()
		}
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
	c.origin = res.Origin
	s.store.complete(pt, c, data, err)
	res.Data, res.rendered = data, err == nil
	return res, err
}

// fetchFromOwner proxies req to the grid point's rendezvous owner and, on
// success, fills res with the owner's bytes and stage timings (origin
// peer) and reports true; the caller stores the bytes — read-through
// replication under the normal budget, so the next request for the point
// is a local hit. The owner's stage timings pass through; what they do not
// cover — dial/pool wait plus hop network transit — is this node's proxy
// overhead and is split out as HopMs, so the client's NetMs stays pure
// client↔proxy transit.
func (s *Server) fetchFromOwner(req frameReq, res *frameResult) bool {
	fetchStartMs := sched.NowMs()
	reply, err := s.cluster.Fetch(req.pt, req.deadlineMs, req.traceID)
	if err != nil {
		return false
	}
	hopWallMs := sched.NowMs() - fetchStartMs
	s.sched.ObserveFetchCost(hopWallMs)
	s.obs.peerFrames.Inc()
	res.QueueMs += reply.QueueMs
	res.RenderMs = reply.RenderMs
	res.EncodeMs = reply.EncodeMs
	// Clock jitter between the two nodes' stage clocks must never let the
	// hop go negative, or the client-side identity would over-subtract
	// from NetMs.
	res.HopMs = max(0, hopWallMs-(reply.QueueMs+reply.RenderMs+reply.EncodeMs))
	res.Data, res.Origin = reply.Data, transport.OriginPeer
	s.recordSpan(req.traceID, 1, fetchStartMs, fetchStartMs+hopWallMs, res)
	return true
}

// recordSpan records one server-side span of a traced request (traceID 0 is
// untraced): hop 1 around a proxying node's peer fetch, hop 2 around the
// owner's serve of it.
func (s *Server) recordSpan(traceID uint64, hop uint8, startMs, endMs float64, res *frameResult) {
	if traceID == 0 {
		return
	}
	s.obs.trace.Record(&obs.FrameSpan{
		Player:    int(uint8(traceID >> 32)),
		TraceID:   traceID,
		Hop:       hop,
		StartMs:   startMs,
		DisplayMs: endMs,
		FetchMs:   endMs - startMs,
		HopMs:     res.HopMs,
		QueueMs:   res.QueueMs,
		RenderMs:  res.RenderMs,
		EncodeMs:  res.EncodeMs,
		Origin:    uint8(res.Origin),
	})
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
		case transport.MsgFrameRequest, transport.MsgPeerFrameRequest:
			req, err := transport.DecodeFrameRequest(m.Payload)
			if err != nil {
				return err
			}
			// A peer forwards its client's player and request id verbatim, so
			// this trace id matches the one on the proxy's hop span.
			fr := newFrameReq(req, sched.NowMs())
			fr.refs = refs
			reply := transport.MsgFrameReply
			if m.Type == transport.MsgPeerFrameRequest {
				// Node-to-node hop: no further hop, and no holdings — delta
				// references and the stale rung do not cross nodes.
				fr.fromPeer, fr.refs, reply = true, nil, transport.MsgPeerFrameReply
			}
			res, err := s.serve(fr)
			if err != nil {
				if err := c.Send(errMsg(err.Error())); err != nil {
					return err
				}
				continue
			}
			st.FramesServed++
			st.BytesSent += int64(len(res.Data))
			if err := c.Send(frameReplyMsg(reply, req, res)); err != nil {
				return err
			}
		case transport.MsgBye:
			return nil
		default:
			return fmt.Errorf("server: unexpected message %d", m.Type)
		}
	}
}

// frameReplyMsg frames res as the reply (of the given message type) to
// req, echoing the request's id.
func frameReplyMsg(typ transport.MsgType, req transport.FrameRequest, res frameResult) transport.Message {
	res.ReqID = req.ReqID
	return transport.Message{Type: typ, Payload: transport.EncodeFrameReply(res.FrameReply)}
}

func errMsg(s string) transport.Message {
	return transport.Message{Type: transport.MsgError, Payload: []byte(s)}
}

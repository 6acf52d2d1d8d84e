package server

import (
	"net"
	"sync"

	"coterie/internal/fisync"
	"coterie/internal/geom"
	"coterie/internal/lru"
	"coterie/internal/transport"
)

// Trajectory-driven server push for the datagram frame path. Every FI
// state upload from a subscribed session feeds a constant-velocity
// predictor; when the predicted grid point's frame is store-resident, the
// server slices it onto the UDP socket ahead of the client's request.
// Pushes are paced by a per-session token bucket whose effective rate
// backs off with the session's NACK EWMA, so a lossy link sheds push
// traffic before it sheds the client's own fetches.

const (
	// pushLookaheadSec matches prefetch.DefaultConfig.LookaheadSec, so
	// the server predicts the same point the client's prefetcher is about
	// to ask for.
	pushLookaheadSec = 0.4
	// defaultPushRate is the per-session token-bucket rate (frames/sec).
	defaultPushRate = 30
	// pushBurst caps accumulated tokens: a session idle for a second
	// cannot dump an arbitrary burst when it resumes.
	pushBurst = 4
	// sentRing is how many recently sent frames a session keeps for
	// NACK-triggered chunk retransmits.
	sentRing = 8
	// pushedLRU is how many recently pushed points a session remembers,
	// to avoid re-pushing the frame it just delivered.
	pushedLRU = 16
	// histLen is the trajectory window: constant velocity over the last
	// N PUN states.
	histLen = 4
	// udpReqWorkers bounds concurrent UDP frame-request serves; overflow
	// requests are dropped and the client falls back to TCP.
	udpReqWorkers = 16
	// maxUDPSessions bounds a listener's session table, which any source
	// address enters with one Sub datagram. Overflow drops the session idle
	// longest; a client still there re-subscribes on its next FI timeout.
	maxUDPSessions = 1024
)

// stateSample is one FI state arrival: position plus server receive time.
type stateSample struct {
	pos geom.Vec2
	tMs float64
}

// sentFrame is one frame recently sliced to a session, kept so a NACK can
// retransmit individual chunks without a store round trip.
type sentFrame struct {
	seq  uint32
	meta transport.FrameMeta
	data []byte
}

// udpSession is the server's per-address datagram frame-path state.
type udpSession struct {
	addr     net.Addr
	wantPush bool

	// Trajectory ring (constant-velocity predictor input).
	hist  [histLen]stateSample
	nHist int

	// Frame stream to this session: one stream id, monotonic seqs shared
	// by pushes and request replies.
	streamID uint32
	nextSeq  uint32

	// Token-bucket pacer.
	tokens   float64
	lastFill float64 // seconds
	nackEWMA float64

	// Recently pushed points, oldest first.
	pushed lru.Map[geom.GridPoint, struct{}]

	sent [sentRing]sentFrame
}

// udpServe is the state of one ServeFIUDP listener: the socket, the
// subscribed sessions (least recently heard from dropped first), and the
// bounded request-serving semaphore. It is created per listener so two UDP
// sockets on one Server never share session state.
type udpServe struct {
	pc  net.PacketConn
	mu  sync.Mutex
	sub lru.Map[string, *udpSession]
	sem chan struct{}
}

// session returns addr's session (nil when it never subscribed or was
// dropped) and marks it the most recently heard from.
func (u *udpServe) session(addr net.Addr) *udpSession {
	u.mu.Lock()
	defer u.mu.Unlock()
	sess, _ := u.sub.Get(addr.String())
	return sess
}

// notePush updates the session's predictor with a fresh FI state and, when
// push is enabled and the pacer allows, pushes the predicted point's
// store-resident frame. Called from the ServeFIUDP read loop, so the push
// itself is a store peek + slice + sendto — never a render.
func (s *Server) notePush(u *udpServe, sess *udpSession, st fisync.State, nowMs float64) {
	copy(sess.hist[1:], sess.hist[:histLen-1])
	sess.hist[0] = stateSample{pos: st.Pos, tMs: nowMs}
	if sess.nHist < histLen {
		sess.nHist++
	}
	// A clean FI round decays the loss estimate.
	sess.nackEWMA *= 0.98
	if !s.pushOn.Load() || !sess.wantPush || sess.nHist < 2 {
		return
	}

	// Constant velocity across the trajectory window.
	newest, oldest := sess.hist[0], sess.hist[sess.nHist-1]
	dt := (newest.tMs - oldest.tMs) / 1000
	if dt <= 0 {
		return
	}
	vel := newest.pos.Sub(oldest.pos).Scale(1 / dt)
	grid := s.env.Game.Scene.Grid
	pt := grid.Snap(newest.pos.Add(vel.Scale(pushLookaheadSec)))
	if !grid.In(pt) {
		return
	}

	// Refill the bucket at the effective rate: defaultPushRate scaled down
	// by the NACK EWMA (loss backoff).
	rate := defaultPushRate / (1 + 8*sess.nackEWMA)
	nowSec := nowMs / 1000
	sess.tokens += (nowSec - sess.lastFill) * rate
	sess.lastFill = nowSec
	if sess.tokens > pushBurst {
		sess.tokens = pushBurst
	}

	data, ok := s.store.peek(pt)
	if !ok {
		return // nothing store-resident: the client's own fetch will render it
	}
	if _, dup := sess.pushed.Peek(pt); dup {
		return // already pushed this point's frame
	}
	if sess.tokens < 1 {
		s.obs.pushSkips.Inc()
		return
	}
	sess.tokens--
	sess.pushed.Put(pt, struct{}{})
	if sess.pushed.Len() > pushedLRU {
		sess.pushed.RemoveOldest()
	}
	s.sendFrame(u, sess, pt, data, transport.DgramFlagPushed)
	s.obs.pushFrames.Inc()
	s.obs.pushBytes.Add(int64(len(data)))
}

// sendFrame slices one encoded frame onto the session's stream and
// remembers it for NACK retransmits. Callers hold no locks; seq
// allocation and the sent-ring update take the serve mutex.
func (s *Server) sendFrame(u *udpServe, sess *udpSession, pt geom.GridPoint, data []byte, flags byte) {
	u.mu.Lock()
	sess.nextSeq++
	seq := sess.nextSeq
	meta := transport.FrameMeta{
		StreamID: sess.streamID,
		FrameSeq: seq,
		Point:    pt,
		Flags:    flags,
	}
	sess.sent[seq%sentRing] = sentFrame{seq: seq, meta: meta, data: data}
	u.mu.Unlock()

	for _, d := range transport.SliceFrame(nil, meta, data, transport.DefaultFECGroup) {
		s.obs.udpBytesOut.Add(int64(len(d)))
		if _, err := u.pc.WriteTo(d, sess.addr); err != nil {
			s.obs.udpSendErrors.Inc()
			return
		}
	}
}

// serveUDPReq answers a client's UDP frame request through serve on a
// bounded worker pool. The request's deadline is its receive time plus the
// budget it carries (newFrameReq, as on TCP), so it queues by deadline and counts in
// server.deadline_met / _misses like a TCP request. When the pool is full
// the request is dropped and counted (server.udp.dropped_overflow): the
// client's short UDP budget expires and it falls back to TCP, which is
// exactly the overload behaviour we want.
func (s *Server) serveUDPReq(u *udpServe, addr net.Addr, req transport.FrameRequest, recvMs float64) {
	sess := u.session(addr)
	if sess == nil {
		s.obs.udpDroppedStale.Inc() // request without a subscription
		return
	}
	select {
	case u.sem <- struct{}{}:
	default:
		s.obs.udpDroppedOverflow.Inc()
		return
	}
	s.obs.udpFrameReqs.Inc()
	go func() {
		defer func() { <-u.sem }()
		res, err := s.serve(newFrameReq(req, recvMs))
		if err != nil {
			return // client falls back to TCP
		}
		s.sendFrame(u, sess, req.Point, res.Data, 0)
	}()
}

// serveNack retransmits the chunks a client reports missing, from the
// session's sent-frame ring. The NACK also bumps the loss EWMA the push
// pacer backs off on.
func (s *Server) serveNack(u *udpServe, addr net.Addr, nack transport.Nack) {
	sess := u.session(addr)
	if sess == nil {
		s.obs.udpDroppedStale.Inc()
		return
	}
	s.obs.udpNacks.Inc()
	u.mu.Lock()
	sess.nackEWMA = 0.9*sess.nackEWMA + 0.1
	sf := sess.sent[nack.FrameSeq%sentRing]
	u.mu.Unlock()
	if sf.seq != nack.FrameSeq || sf.meta.StreamID != nack.StreamID {
		s.obs.udpDroppedStale.Inc() // frame already rotated out of the ring
		return
	}
	for _, idx := range nack.Missing {
		d := transport.SliceChunk(sf.meta, sf.data, int(idx))
		if d == nil {
			continue
		}
		s.obs.udpRetransmits.Inc()
		s.obs.udpBytesOut.Add(int64(len(d)))
		if _, err := u.pc.WriteTo(d, sess.addr); err != nil {
			s.obs.udpSendErrors.Inc()
			return
		}
	}
}

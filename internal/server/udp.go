package server

import (
	"errors"
	"net"

	"coterie/internal/fisync"
	"coterie/internal/sched"
	"coterie/internal/transport"
)

// The paper synchronises FI over UDP (PUN, §5.1 task 4) while frames go
// over TCP. This file is the UDP datagram path: a client sends its State
// each frame and the server answers with the other players' latest states
// in a single datagram. Loss is tolerable — the next frame resends, and
// the hub's sequence numbers drop reordered updates.
//
// The same socket also carries the datagram frame path (push.go). Every
// datagram is typed (transport.DgramType): a client subscribes first, and
// the server answers FI uploads, frame requests and NACKs only from
// subscribed addresses.

// ServeFIUDP answers FI sync and datagram frame-path traffic on the
// connection until it closes. A failed send is counted in
// server.udp_send_errors and the loop carries on; only a failed read ends
// it (nil once the connection is closed).
func (s *Server) ServeFIUDP(pc net.PacketConn) error {
	buf := make([]byte, 64*1024)
	u := &udpServe{pc: pc, sem: make(chan struct{}, udpReqWorkers)}
	for {
		n, addr, err := pc.ReadFrom(buf)
		if err != nil {
			if errors.Is(err, net.ErrClosed) {
				return nil
			}
			return err
		}
		s.obs.udpDatagrams.Inc()
		s.obs.udpBytesIn.Add(int64(n))
		s.handleDgram(u, addr, buf[:n], sched.NowMs())
	}
}

// handleDgram dispatches one datagram by type. Malformed payloads, and
// anything without the magic prefix, count against dropped_malformed.
func (s *Server) handleDgram(u *udpServe, addr net.Addr, b []byte, nowMs float64) {
	switch transport.DgramType(b) {
	case transport.DgramSub:
		sub, err := transport.DecodeSub(b)
		if err != nil {
			s.obs.udpDroppedMalformed.Inc()
			return
		}
		u.mu.Lock()
		key := addr.String()
		sess, ok := u.sub.Get(key)
		if !ok {
			sess = &udpSession{
				addr: addr,
				// Stream ids only need to differ between sessions the
				// same client multiplexes; player+1 keeps 0 invalid.
				streamID: uint32(sub.Player) + 1,
				lastFill: nowMs / 1000,
			}
			u.sub.Put(key, sess)
			if u.sub.Len() > maxUDPSessions {
				u.sub.RemoveOldest()
			}
		}
		sess.wantPush = sub.WantPush
		u.mu.Unlock()
	case transport.DgramFI:
		st, err := transport.DecodeFI(b)
		if err != nil {
			s.obs.udpDroppedMalformed.Inc()
			return
		}
		s.serveFI(u, addr, st, nowMs)
	case transport.DgramReq:
		req, err := transport.DecodeFrameRequest(b[2:])
		if err != nil {
			s.obs.udpDroppedMalformed.Inc()
			return
		}
		s.serveUDPReq(u, addr, req, nowMs)
	case transport.DgramNack:
		nack, err := transport.DecodeNack(b)
		if err != nil {
			s.obs.udpDroppedMalformed.Inc()
			return
		}
		s.serveNack(u, addr, nack)
	default:
		s.obs.udpDroppedMalformed.Inc()
	}
}

// serveFI folds a subscribed player's state into the hub, answers with
// everyone else's latest states and feeds the session's push predictor.
// An upload from an address that never subscribed (or was dropped) gets no
// reply; its Sync times out and resubscribes.
func (s *Server) serveFI(u *udpServe, addr net.Addr, st fisync.State, nowMs float64) {
	sess := u.session(addr)
	if sess == nil {
		s.obs.udpDroppedStale.Inc()
		return
	}
	s.mu.Lock()
	s.hub.Update(st)
	others := s.hub.Snapshot(st.Player)
	s.mu.Unlock()
	out := transport.EncodeFIReply(nil, fisync.AppendStates(nil, others))
	s.obs.udpBytesOut.Add(int64(len(out)))
	if _, err := u.pc.WriteTo(out, addr); err != nil {
		s.obs.udpSendErrors.Inc()
	}
	s.notePush(u, sess, st, nowMs)
}

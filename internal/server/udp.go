package server

import (
	"errors"
	"fmt"
	"net"
	"time"

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
// The same socket also carries the datagram frame path (push.go). Demux
// is by a wire invariant: a bare FI state upload is exactly
// fisync.WireSize bytes and carries no magic, while every frame-path
// datagram starts with transport.DgramMagic and is never exactly that
// long (transport pads the one colliding length). Legacy FI-only clients
// are therefore byte-compatible: they never send a subscription, so they
// keep getting the raw concatenated-state reply.

// ServeFIUDP answers FI sync and datagram frame-path traffic on the
// connection until it closes.
func (s *Server) ServeFIUDP(pc net.PacketConn) error {
	buf := make([]byte, 64*1024)
	var out []byte
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
		if n != fisync.WireSize {
			if transport.DgramType(buf[:n]) != 0 {
				s.handleDgram(u, addr, buf[:n], sched.NowMs())
			} else {
				s.obs.udpDroppedMalformed.Inc()
			}
			continue
		}
		st, _, err := fisync.DecodeState(buf[:n])
		if err != nil {
			s.obs.udpDroppedMalformed.Inc()
			continue // malformed datagram: drop, like any UDP service
		}
		s.mu.Lock()
		s.hub.Update(st)
		others := s.hub.Snapshot(st.Player)
		s.mu.Unlock()
		out = out[:0]
		sess := u.session(addr)
		if sess != nil {
			// Subscribed client: typed reply, so its receive loop can
			// demux FI replies from frame chunks.
			out = transport.EncodeFIReply(out, fisync.AppendStates(nil, others))
		} else {
			out = fisync.AppendStates(out, others)
		}
		s.obs.udpBytesOut.Add(int64(len(out)))
		if _, err := pc.WriteTo(out, addr); err != nil {
			if errors.Is(err, net.ErrClosed) {
				return nil
			}
			// Counted before propagating: the caller typically tears the
			// whole UDP path down on a send failure, and the counter is how
			// an operator distinguishes "socket died" from "client left".
			s.obs.udpSendErrors.Inc()
			return err
		}
		if sess != nil {
			s.notePush(u, sess, st, sched.NowMs())
		}
	}
}

// FIClient is the client side of the UDP FI sync.
type FIClient struct {
	conn net.Conn
	buf  []byte
}

// DialFI connects the UDP FI sync endpoint.
func DialFI(addr string) (*FIClient, error) {
	conn, err := net.Dial("udp", addr)
	if err != nil {
		return nil, err
	}
	return &FIClient{conn: conn, buf: make([]byte, 64*1024)}, nil
}

// Sync uploads the player's state and returns the other players' states.
// A lost or late reply returns an error after the timeout; callers simply
// sync again next frame.
func (c *FIClient) Sync(st fisync.State, timeout time.Duration) ([]fisync.State, error) {
	if _, err := c.conn.Write(st.Encode(nil)); err != nil {
		return nil, err
	}
	if err := c.conn.SetReadDeadline(time.Now().Add(timeout)); err != nil {
		return nil, err
	}
	n, err := c.conn.Read(c.buf)
	if err != nil {
		return nil, fmt.Errorf("fisync over UDP: %w", err)
	}
	return fisync.DecodeStates(c.buf[:n])
}

// Close releases the socket.
func (c *FIClient) Close() error { return c.conn.Close() }

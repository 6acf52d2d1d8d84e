// Package client is the phone's half of Coterie: the synchronous TCP frame
// exchange (Client), the UDP channel for FI sync, pushes and datagram
// fetches (UDPChannel), and RunLive, the live backend of the shared client
// runtime (similarity cache, prefetcher, delta decode) over real sockets.
// It speaks the wire protocol of internal/transport and links nothing of
// the server.
package client

import (
	"fmt"
	"net"
	"time"

	"coterie/internal/geom"
	"coterie/internal/transport"
)

// Client is the synchronous client side of the TCP protocol: hello
// handshake, then one frame request/reply at a time, numbered by the
// player's request-id counter. Not safe for concurrent use.
type Client struct {
	conn   *transport.Conn
	nc     net.Conn
	Player uint8
	reqID  uint32 // monotonic frame-request id (single-goroutine use)
}

// Dial connects and performs the hello exchange.
func Dial(addr, game string, player uint8) (*Client, error) {
	return dial(addr, 0, transport.Hello{Player: player, Game: game})
}

// dial connects to addr and performs the hello exchange, the dial and the
// round trip each bounded by timeout (<= 0 means
// transport.DefaultDialTimeout) so an unreachable or wedged server fails in
// bounded time. A hello the server rejects is a *transport.RemoteError; on
// any error the connection is closed.
func dial(addr string, timeout time.Duration, h transport.Hello) (*Client, error) {
	if timeout <= 0 {
		timeout = transport.DefaultDialTimeout
	}
	nc, err := transport.Dial(addr, timeout)
	if err != nil {
		return nil, err
	}
	c := &Client{conn: transport.NewConn(nc), nc: nc, Player: h.Player}
	if err := c.hello(time.Now().Add(timeout), h); err != nil {
		nc.Close()
		return nil, err
	}
	return c, nil
}

func (c *Client) hello(deadline time.Time, h transport.Hello) error {
	if err := c.nc.SetDeadline(deadline); err != nil {
		return err
	}
	m, err := c.exchange(transport.Message{Type: transport.MsgHello, Payload: transport.EncodeHello(h)})
	if err != nil {
		return err
	}
	if m.Type != transport.MsgHello {
		return fmt.Errorf("client: unexpected hello reply %d", m.Type)
	}
	return c.nc.SetDeadline(time.Time{})
}

// exchange sends one message and reads the answer; a MsgError answer is
// returned as a *transport.RemoteError.
func (c *Client) exchange(m transport.Message) (transport.Message, error) {
	if err := c.conn.Send(m); err != nil {
		return transport.Message{}, err
	}
	m, err := c.conn.Recv()
	if err == nil && m.Type == transport.MsgError {
		err = &transport.RemoteError{Msg: string(m.Payload)}
	}
	return m, err
}

// do runs one frame exchange: the answer must be a MsgFrameReply echoing
// the request id. After a *transport.RemoteError the connection stays
// usable; after any other error it is out of step and must be closed.
func (c *Client) do(req transport.FrameRequest) (transport.FrameReply, error) {
	m, err := c.exchange(transport.Message{Type: transport.MsgFrameRequest, Payload: transport.EncodeFrameRequest(req)})
	if err != nil {
		return transport.FrameReply{}, err
	}
	if m.Type != transport.MsgFrameReply {
		return transport.FrameReply{}, fmt.Errorf("client: unexpected reply %d to a frame request", m.Type)
	}
	reply, err := transport.DecodeFrameReply(m.Payload)
	if err == nil && reply.ReqID != req.ReqID {
		err = fmt.Errorf("client: reply to request %d, want %d", reply.ReqID, req.ReqID)
	}
	return reply, err
}

// Fetch requests one far-BE frame and returns the full reply with its
// server-side stage spans. budgetUs is the request's budget
// (transport.BudgetUs; 0: no deadline): the server's deadline is its
// receive time plus the budget, and it prioritises, degrades, or sheds
// against it. A shed surfaces as a *transport.RemoteError, after which the
// session remains usable. Not safe for concurrent use: the connection
// carries one request at a time.
func (c *Client) Fetch(pt geom.GridPoint, budgetUs uint32) (transport.FrameReply, error) {
	c.reqID++
	return c.do(transport.FrameRequest{
		Player:   c.Player,
		Point:    pt,
		ReqID:    c.reqID,
		BudgetUs: budgetUs,
	})
}

// FetchTraced is Fetch without a deadline, plus the client's wall-clock
// stamps (unix milliseconds) just before the request and just after the
// reply. It remains only for the benchmark harness, which calls it by
// name; the harness's move to Fetch deletes it.
func (c *Client) FetchTraced(pt geom.GridPoint) (reply transport.FrameReply, sentMs, doneMs float64, err error) {
	sentMs = unixMs()
	reply, err = c.Fetch(pt, 0)
	return reply, sentMs, unixMs(), err
}

func unixMs() float64 { return float64(time.Now().UnixNano()) / 1e6 }

// Close ends the session with MsgBye so the server records a clean
// teardown.
func (c *Client) Close() error {
	_ = c.conn.Send(transport.Message{Type: transport.MsgBye})
	return c.nc.Close()
}

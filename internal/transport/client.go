package transport

import (
	"fmt"
	"net"
	"time"
)

// RemoteError is an application-level rejection the far side delivered as
// MsgError (a wrong-game hello, an admission-control shed, a point outside
// the world). Unlike a transport error it leaves a handshaken session
// usable: the caller may retry or fall back.
type RemoteError struct{ Msg string }

func (e *RemoteError) Error() string { return "server error: " + e.Msg }

// Client is the client half of the TCP protocol — hello handshake, then
// synchronous frame request/reply — shared by server.Client and the
// cluster's peer hop. The embedded Conn carries the fire-and-forget bye.
// Not safe for concurrent use.
type Client struct {
	*Conn
	nc net.Conn
}

// DialClient connects to addr and performs the hello exchange, the dial and
// the round trip each bounded by timeout (<= 0 means DefaultDialTimeout) so
// an unreachable or wedged server fails in bounded time. A hello the server
// rejects is a *RemoteError; on any error the connection is closed.
func DialClient(addr string, timeout time.Duration, h Hello) (*Client, error) {
	if timeout <= 0 {
		timeout = DefaultDialTimeout
	}
	nc, err := Dial(addr, timeout)
	if err != nil {
		return nil, err
	}
	c := &Client{Conn: NewConn(nc), nc: nc}
	if err := c.hello(time.Now().Add(timeout), h); err != nil {
		nc.Close()
		return nil, err
	}
	return c, nil
}

func (c *Client) hello(deadline time.Time, h Hello) error {
	if err := c.nc.SetDeadline(deadline); err != nil {
		return err
	}
	m, err := c.exchange(Message{Type: MsgHello, Payload: EncodeHello(h)})
	if err != nil {
		return err
	}
	if m.Type != MsgHello {
		return fmt.Errorf("transport: unexpected hello reply %d", m.Type)
	}
	return c.nc.SetDeadline(time.Time{})
}

// exchange sends one message and reads the answer; a MsgError answer is
// returned as a *RemoteError.
func (c *Client) exchange(m Message) (Message, error) {
	if err := c.Send(m); err != nil {
		return Message{}, err
	}
	m, err := c.Recv()
	if err == nil && m.Type == MsgError {
		err = &RemoteError{Msg: string(m.Payload)}
	}
	return m, err
}

// Do runs one frame exchange: typ is MsgFrameRequest or MsgPeerFrameRequest,
// and the answer must be the reply type that follows it on the wire, echoing
// the request id. After a *RemoteError the connection stays usable; after
// any other error it is out of step and must be closed.
func (c *Client) Do(typ MsgType, req FrameRequest) (FrameReply, error) {
	m, err := c.exchange(Message{Type: typ, Payload: EncodeFrameRequest(req)})
	if err != nil {
		return FrameReply{}, err
	}
	if m.Type != typ+1 { // MsgFrameReply, MsgPeerFrameReply
		return FrameReply{}, fmt.Errorf("transport: unexpected reply %d to request %d", m.Type, typ)
	}
	reply, err := DecodeFrameReply(m.Payload)
	if err == nil && reply.ReqID != req.ReqID {
		err = fmt.Errorf("transport: reply to request %d, want %d", reply.ReqID, req.ReqID)
	}
	return reply, err
}

// SetDeadline bounds the exchanges that follow (the zero time clears it).
func (c *Client) SetDeadline(t time.Time) error { return c.nc.SetDeadline(t) }

// Close closes the connection.
func (c *Client) Close() error { return c.nc.Close() }

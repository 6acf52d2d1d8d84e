// Package client is the phone's half of Coterie: the synchronous TCP frame
// exchange (Client), the UDP channel for FI sync, pushes and datagram
// fetches (UDPChannel), and RunLive, the live backend of the shared client
// runtime (similarity cache, prefetcher, delta decode) over real sockets.
// It speaks the wire protocol of internal/transport and links nothing of
// the server.
package client

import (
	"time"

	"coterie/internal/geom"
	"coterie/internal/transport"
)

// Client is the synchronous client side of the protocol: the shared
// transport.Client exchange plus the player's request-id counter.
type Client struct {
	conn   *transport.Client
	Player uint8
	reqID  uint32 // monotonic frame-request id (single-goroutine use)
}

// Dial connects and performs the hello exchange.
func Dial(addr, game string, player uint8) (*Client, error) {
	conn, err := transport.DialClient(addr, 0, transport.Hello{Player: player, Game: game})
	if err != nil {
		return nil, err
	}
	return &Client{conn: conn, Player: player}, nil
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
	return c.conn.Do(transport.MsgFrameRequest, transport.FrameRequest{
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
	return c.conn.Close()
}

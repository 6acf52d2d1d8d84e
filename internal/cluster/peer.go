package cluster

import (
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"coterie/internal/geom"
	"coterie/internal/obs"
	"coterie/internal/sched"
	"coterie/internal/transport"
)

// PeerPlayer is the player id peer connections present in their hello.
// Peers never join FI sync, so the id only labels the session in logs
// and stats; the top of the range keeps it clear of real players.
const PeerPlayer uint8 = 0xFF

// peerConn is one pooled connection to a peer, with its monotonic
// request-id counter (ids are per connection, like client sessions).
type peerConn struct {
	*transport.Client
	reqID uint32
}

// peer is the fetch client for one remote node: a bounded idle
// connection pool plus the up/down belief the health loop and passive
// fetch failures maintain.
type peer struct {
	addr    string
	cluster *Cluster // config (game, timeouts) and instruments

	mu   sync.Mutex
	idle []*peerConn

	up atomic.Bool
	// upGauge mirrors the up belief into /metrics (1 up, 0 down);
	// nil-safe when the cluster is uninstrumented.
	upGauge *obs.Gauge
}

func newPeer(addr string, c *Cluster) *peer {
	p := &peer{addr: addr, cluster: c}
	// Optimistic start: the first fetch or probe corrects the belief.
	// Starting down would force every node to wait out a health interval
	// before any peer traffic flows.
	p.up.Store(true)
	return p
}

func (p *peer) isUp() bool { return p.up.Load() }

// markDown flips the peer down and drops pooled connections (they share
// the failed endpoint; reusing them would just fail again slower). Only
// a successful probe brings the peer back.
func (p *peer) markDown() {
	if p.up.CompareAndSwap(true, false) {
		p.cluster.obs.downMarks.Inc()
		p.cluster.obs.peersUp.Set(int64(p.cluster.PeersUp()))
		p.upGauge.Set(0)
	}
	p.drain()
}

func (p *peer) markUp() {
	if p.up.CompareAndSwap(false, true) {
		p.cluster.obs.recoveries.Inc()
		p.cluster.obs.peersUp.Set(int64(p.cluster.PeersUp()))
		p.upGauge.Set(1)
	}
}

// get returns a pooled connection; when the pool is empty it dials and
// handshakes a new one, both bounded by the dial timeout.
func (p *peer) get() (*peerConn, error) {
	p.mu.Lock()
	if n := len(p.idle); n > 0 {
		pc := p.idle[n-1]
		p.idle[n-1] = nil
		p.idle = p.idle[:n-1]
		p.mu.Unlock()
		return pc, nil
	}
	p.mu.Unlock()
	cfg := &p.cluster.cfg
	tc, err := transport.DialClient(p.addr, 0, transport.Hello{Player: PeerPlayer, Game: cfg.Game})
	if err != nil {
		return nil, err
	}
	return &peerConn{Client: tc}, nil
}

// put returns a healthy connection to the pool, closing it when the
// pool is full.
func (p *peer) put(pc *peerConn) {
	p.mu.Lock()
	if len(p.idle) < poolSize {
		p.idle = append(p.idle, pc)
		p.mu.Unlock()
		return
	}
	p.mu.Unlock()
	pc.Close()
}

// drain closes all pooled connections.
func (p *peer) drain() {
	p.mu.Lock()
	idle := p.idle
	p.idle = nil
	p.mu.Unlock()
	for _, pc := range idle {
		pc.Close()
	}
}

// fetch runs one MsgPeerFrameRequest round trip, bounded by the fetch
// timeout. Transport failures close the connection and mark the peer down
// (passively — the health loop will bring it back); application-level
// rejections (*transport.RemoteError) keep both the connection and the
// peer's up state. deadlineMs is on this node's clock (sched.NowMs, <= 0
// none); the request carries the budget remaining until it.
//
// traceID, when non-zero, is the distributed trace id of the client
// request being proxied; the hop forwards its request context (player
// and request id) verbatim so the owner derives the identical id. The
// protocol is synchronous per connection, so reusing the client's id in
// place of the per-connection counter is unambiguous. Untraced fetches
// (traceID 0) keep the per-connection counter under PeerPlayer.
func (p *peer) fetch(pt geom.GridPoint, deadlineMs float64, traceID uint64) (transport.FrameReply, error) {
	pc, err := p.get()
	if err != nil {
		p.markDown()
		return transport.FrameReply{}, err
	}
	player, reqID := PeerPlayer, uint32(traceID)
	if traceID != 0 {
		player = uint8(traceID >> 32)
	} else {
		pc.reqID++
		reqID = pc.reqID
	}
	var reply transport.FrameReply
	if err = pc.SetDeadline(time.Now().Add(p.cluster.cfg.FetchTimeout)); err == nil {
		// What is left of the client's budget when the hop leaves: the owner
		// adds it to its own receive time, so it never reads this node's
		// clock.
		left := time.Duration((deadlineMs - sched.NowMs()) * float64(time.Millisecond))
		reply, err = pc.Do(transport.MsgPeerFrameRequest, transport.FrameRequest{
			Player:   player,
			Point:    pt,
			ReqID:    reqID,
			BudgetUs: transport.BudgetUs(left, deadlineMs > 0),
		})
	}
	var rejected *transport.RemoteError
	if err != nil && !errors.As(err, &rejected) {
		pc.Close()
		p.markDown()
		return transport.FrameReply{}, err
	}
	// The exchange completed, so the connection is in step and reusable —
	// unless its deadline cannot be cleared, which costs only the reuse.
	if pc.SetDeadline(time.Time{}) == nil {
		p.put(pc)
	} else {
		pc.Close()
	}
	return reply, err
}

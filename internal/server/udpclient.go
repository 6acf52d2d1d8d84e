package server

import (
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"coterie/internal/fisync"
	"coterie/internal/geom"
	"coterie/internal/lru"
	"coterie/internal/obs"
	"coterie/internal/transport"
)

// UDPChannel is the client's one UDP socket: FI sync, plus the datagram
// frame path — unsolicited server pushes and short request/reply frame
// fetches — multiplexed by the transport's magic+type prefix. A single
// receive goroutine owns the socket's read side — it reassembles chunked
// frames, answers loss with NACKs, and hands completed frames to waiters
// (fetches in flight) or the pushed-frame store (for the cache to absorb).
// Reads are deadline-bounded per iteration, so Close always joins the
// goroutine promptly even when the server has gone silent mid-round.
type UDPChannel struct {
	conn     net.Conn
	player   uint8
	wantPush bool

	// OnFrame, when set before the first Sync/Fetch, receives every
	// reassembled frame that no fetch was waiting for (pushed frames and
	// replies that outlived their budget). Called from the receive
	// goroutine; implementations must not block.
	OnFrame func(pt geom.GridPoint, data []byte, pushed bool)

	mu      sync.Mutex
	reasm   *transport.Reassembler
	waiters map[geom.GridPoint]chan []byte
	fiCh    chan []byte
	// store holds every reassembled frame — pushes, replies nobody was
	// waiting for, and replies a fetch consumed. It is a small bounded
	// FIFO cache, not a one-shot queue: frames stay resident after a
	// hit, so one push (or one request round trip) keeps serving a
	// player who circles the same few grid cells — the walk regime the
	// whole frame-similarity design targets. Grid-point frames are
	// immutable, so retention never serves stale bytes.
	store lru.Map[geom.GridPoint, *storedFrame]

	closed   chan struct{}
	recvDone chan struct{}
	closing  sync.Once

	reqID atomic.Uint32

	// Stats (atomics: read by reporters while the loop runs).
	pushedRecv      atomic.Int64
	pushedBytes     atomic.Int64
	pushedUsed      atomic.Int64
	pushedUsedBytes atomic.Int64
	nacksSent       atomic.Int64
	fetchHits       atomic.Int64
	fetchMisses     atomic.Int64
	pushServes      atomic.Int64

	// Registry instruments (nil without a registry; Counter.Add is
	// nil-safe), so the push economy is scrapable from /metrics.
	pushedRecvC *obs.Counter
	pushServesC *obs.Counter
}

type storedFrame struct {
	data   []byte
	pushed bool
	// credited marks a pushed frame already counted once in PushedUsed,
	// so repeat hits tally serves without inflating the distinct-use
	// (waste) accounting.
	credited bool
}

// udpStoreCap bounds the pushed/late-frame store; beyond it the oldest
// frame is discarded (a wasted push).
const udpStoreCap = 32

// udpNackRetries is how many NACK rounds a partial frame gets before the
// reassembler abandons it and the fetch falls back to TCP.
const udpNackRetries = 3

// udpNackAgeSec is how long a partial may sit without progress before the
// stale sweep NACKs it (tail-triggered NACKs fire immediately, so this
// only covers tail loss). The sweep runs only when a read has waited
// 50 ms for any datagram or has failed, so on a socket that hears FI
// replies every frame a partial whose tail chunk was lost is not NACKed:
// it waits for the reassembler's partial-frame cap to drop it.
const udpNackAgeSec = 0.02

// UDPStats is a snapshot of the channel's frame-path accounting.
type UDPStats struct {
	PushedRecv      int64 // pushed frames reassembled
	PushedBytes     int64
	PushedUsed      int64 // distinct pushed frames a fetch consumed (waste accounting)
	PushedUsedBytes int64
	PushServes      int64 // fetches served by a pushed frame (one push can serve many)
	NacksSent       int64
	FetchHits       int64 // Fetch calls satisfied over UDP
	FetchMisses     int64 // Fetch calls that timed out (TCP fallback)
	Reassembly      transport.ReassemblerStats
}

// DialUDP connects the client's UDP channel: it dials the server's UDP
// socket, subscribes (with a push opt-in when wantPush), and starts the
// receive loop. The registry, when non-nil, instruments the reassembler
// under "client.udp.".
func DialUDP(addr string, player uint8, wantPush bool, reg *obs.Registry) (*UDPChannel, error) {
	conn, err := net.Dial("udp", addr)
	if err != nil {
		return nil, err
	}
	c := &UDPChannel{
		conn:     conn,
		player:   player,
		reasm:    transport.NewReassembler(transport.ReassemblerConfig{}),
		waiters:  make(map[geom.GridPoint]chan []byte),
		closed:   make(chan struct{}),
		recvDone: make(chan struct{}),
	}
	if reg != nil {
		c.reasm.Instrument(reg, "client.udp")
		c.pushedRecvC = reg.Counter("client.udp.pushed_frames")
		c.pushServesC = reg.Counter("client.udp.push_serves")
	}
	if err := c.subscribe(wantPush); err != nil {
		conn.Close()
		return nil, err
	}
	c.wantPush = wantPush
	go c.recvLoop()
	return c, nil
}

func (c *UDPChannel) subscribe(wantPush bool) error {
	_, err := c.conn.Write(transport.EncodeSub(nil, transport.Sub{Player: c.player, WantPush: wantPush}))
	return err
}

// Sync uploads the player's FI state and waits for the server's reply of
// the other players' states. A timeout resubscribes (the Sub datagram may
// have been lost) and reports an error; the caller syncs again next frame.
func (c *UDPChannel) Sync(st fisync.State, timeout time.Duration) ([]fisync.State, error) {
	ch := make(chan []byte, 1)
	c.mu.Lock()
	c.fiCh = ch
	c.mu.Unlock()
	if _, err := c.conn.Write(transport.EncodeFI(nil, st)); err != nil {
		return nil, err
	}
	t := time.NewTimer(timeout)
	defer t.Stop()
	select {
	case payload := <-ch:
		return fisync.DecodeStates(payload)
	case <-t.C:
		c.mu.Lock()
		c.fiCh = nil
		c.mu.Unlock()
		c.subscribe(c.wantPush)
		return nil, fmt.Errorf("fisync over UDP: reply timeout after %v", timeout)
	case <-c.closed:
		return nil, net.ErrClosed
	}
}

// Fetch asks for one grid point's frame over UDP and waits up to budget
// for it; ok=false means the caller should fall back to TCP. The request
// carries the budget, which the server turns into its deadline. A frame
// the server already pushed is returned immediately without a request.
func (c *UDPChannel) Fetch(pt geom.GridPoint, budget time.Duration) ([]byte, bool) {
	c.mu.Lock()
	if sf, ok := c.store.Peek(pt); ok {
		c.noteStoredHitLocked(sf)
		c.mu.Unlock()
		c.fetchHits.Add(1)
		return sf.data, true
	}
	ch := make(chan []byte, 1)
	c.waiters[pt] = ch
	c.mu.Unlock()

	req := transport.FrameRequest{Player: c.player, Point: pt, ReqID: c.reqID.Add(1),
		BudgetUs: transport.BudgetUs(budget, true)}
	if _, err := c.conn.Write(transport.EncodeDgramReq(nil, req)); err != nil {
		c.dropWaiter(pt)
		c.fetchMisses.Add(1)
		return nil, false
	}
	t := time.NewTimer(budget)
	defer t.Stop()
	select {
	case data := <-ch:
		c.fetchHits.Add(1)
		return data, true
	case <-t.C:
	case <-c.closed:
	}
	c.dropWaiter(pt)
	// The frame may have been delivered between the timeout firing and
	// the waiter coming down; the buffered channel holds it.
	select {
	case data := <-ch:
		c.fetchHits.Add(1)
		return data, true
	default:
	}
	c.fetchMisses.Add(1)
	return nil, false
}

func (c *UDPChannel) dropWaiter(pt geom.GridPoint) {
	c.mu.Lock()
	delete(c.waiters, pt)
	c.mu.Unlock()
}

// storeLocked inserts a frame into the bounded retained store (caller
// holds mu); the oldest entry is evicted FIFO past the cap. A duplicate
// point keeps the first copy (the bytes are identical by construction).
func (c *UDPChannel) storeLocked(pt geom.GridPoint, data []byte, pushed, credited bool) {
	if _, dup := c.store.Peek(pt); dup {
		return
	}
	c.store.Put(pt, &storedFrame{data: data, pushed: pushed, credited: credited})
	if c.store.Len() > udpStoreCap {
		c.store.RemoveOldest()
	}
}

// noteStoredHitLocked tallies a store hit (caller holds mu). The frame
// stays resident — see the store field's comment — so one push serves
// every later fetch of its grid point until FIFO eviction.
func (c *UDPChannel) noteStoredHitLocked(sf *storedFrame) {
	if !sf.pushed {
		return
	}
	c.pushServes.Add(1)
	c.pushServesC.Add(1)
	if !sf.credited {
		sf.credited = true
		c.pushedUsed.Add(1)
		c.pushedUsedBytes.Add(int64(len(sf.data)))
	}
}

// Stats snapshots the channel's accounting.
func (c *UDPChannel) Stats() UDPStats {
	c.mu.Lock()
	rs := c.reasm.Stats()
	c.mu.Unlock()
	return UDPStats{
		PushedRecv:      c.pushedRecv.Load(),
		PushedBytes:     c.pushedBytes.Load(),
		PushedUsed:      c.pushedUsed.Load(),
		PushedUsedBytes: c.pushedUsedBytes.Load(),
		PushServes:      c.pushServes.Load(),
		NacksSent:       c.nacksSent.Load(),
		FetchHits:       c.fetchHits.Load(),
		FetchMisses:     c.fetchMisses.Load(),
		Reassembly:      rs,
	}
}

// Close tears the channel down and joins the receive goroutine.
func (c *UDPChannel) Close() error {
	var err error
	c.closing.Do(func() {
		close(c.closed)
		err = c.conn.Close()
		<-c.recvDone
	})
	return err
}

// recvLoop owns the socket's read side. Each iteration arms a fresh read
// deadline, so a silent server never wedges the goroutine: deadline
// expiries (50 ms without any datagram) and read errors are the only
// stale-partial sweep ticks, and Close's socket close aborts a blocked
// read immediately.
func (c *UDPChannel) recvLoop() {
	defer close(c.recvDone)
	buf := make([]byte, 64*1024)
	for {
		select {
		case <-c.closed:
			return
		default:
		}
		c.conn.SetReadDeadline(time.Now().Add(50 * time.Millisecond))
		n, err := c.conn.Read(buf)
		if err != nil {
			if ne, ok := err.(net.Error); ok && ne.Timeout() {
				c.sweep()
				continue
			}
			select {
			case <-c.closed:
				return
			default:
			}
			// Transient socket error (e.g. ICMP port unreachable surfacing
			// as ECONNREFUSED on a connected UDP socket): keep reading.
			c.sweep()
			continue
		}
		b := buf[:n]
		switch transport.DgramType(b) {
		case transport.DgramFIReply:
			payload, err := transport.DecodeFIReply(b)
			if err != nil {
				continue
			}
			cp := append([]byte(nil), payload...)
			c.mu.Lock()
			ch := c.fiCh
			c.fiCh = nil
			c.mu.Unlock()
			if ch != nil {
				ch <- cp // buffered; never blocks
			}
		case transport.DgramChunk, transport.DgramParity:
			c.offer(b)
		}
	}
}

// offer feeds one chunk to the reassembler and runs the tail-triggered
// NACK check: when the frame's final chunk has arrived but gaps remain
// beyond FEC repair, the retransmit request goes out immediately instead
// of waiting for the stale sweep.
func (c *UDPChannel) offer(b []byte) {
	nowSec := float64(time.Now().UnixNano()) / 1e9
	c.mu.Lock()
	f := c.reasm.Offer(b, nowSec)
	var nack []byte
	if f == nil {
		if h, err := transport.PeekChunk(b); err == nil && c.reasm.HasTail(h.StreamID, h.FrameSeq) {
			if missing := c.reasm.Missing(h.StreamID, h.FrameSeq); len(missing) > 0 {
				nack = transport.EncodeNack(nil, transport.Nack{StreamID: h.StreamID, FrameSeq: h.FrameSeq, Missing: missing})
				c.reasm.NoteNack(h.StreamID, h.FrameSeq, nowSec)
			}
		}
	}
	c.mu.Unlock()
	if nack != nil {
		c.nacksSent.Add(1)
		c.conn.Write(nack)
	}
	if f != nil {
		c.deliver(f)
	}
}

// sweep NACKs stalled partials and abandons the hopeless ones.
func (c *UDPChannel) sweep() {
	nowSec := float64(time.Now().UnixNano()) / 1e9
	var nacks [][]byte
	c.mu.Lock()
	for _, p := range c.reasm.Stale(nowSec, udpNackAgeSec) {
		if p.Nacks >= udpNackRetries {
			c.reasm.Abandon(p.StreamID, p.FrameSeq)
			continue
		}
		missing := c.reasm.Missing(p.StreamID, p.FrameSeq)
		if len(missing) == 0 {
			continue
		}
		nacks = append(nacks, transport.EncodeNack(nil, transport.Nack{StreamID: p.StreamID, FrameSeq: p.FrameSeq, Missing: missing}))
		c.reasm.NoteNack(p.StreamID, p.FrameSeq, nowSec)
	}
	c.mu.Unlock()
	for _, n := range nacks {
		c.nacksSent.Add(1)
		c.conn.Write(n)
	}
}

// deliver routes a reassembled frame: a waiting fetch gets it directly;
// otherwise it enters the bounded store and OnFrame fires so the cache
// layer can absorb pushes.
func (c *UDPChannel) deliver(f *transport.ReassembledFrame) {
	pushed := f.Flags&transport.DgramFlagPushed != 0
	if pushed {
		c.pushedRecv.Add(1)
		c.pushedBytes.Add(int64(len(f.Data)))
		c.pushedRecvC.Add(1)
	}
	c.mu.Lock()
	if ch, ok := c.waiters[f.Point]; ok {
		delete(c.waiters, f.Point)
		// The consumed reply is retained too (already credited, so later
		// hits count as serves, not fresh consumption).
		c.storeLocked(f.Point, f.Data, pushed, true)
		c.mu.Unlock()
		if pushed {
			c.pushedUsed.Add(1)
			c.pushedUsedBytes.Add(int64(len(f.Data)))
			c.pushServes.Add(1)
			c.pushServesC.Add(1)
		}
		select {
		case ch <- f.Data:
		default:
		}
		return
	}
	c.storeLocked(f.Point, f.Data, pushed, false)
	c.mu.Unlock()
	if c.OnFrame != nil {
		c.OnFrame(f.Point, f.Data, pushed)
	}
}

package cluster

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"coterie/internal/geom"
	"coterie/internal/sched"
	"coterie/internal/transport"
)

// fakeOwner is a minimal node speaking just enough of the protocol to
// stand in for a peer: hello exchange, then MsgPeerFrameRequest ->
// MsgPeerFrameReply with deterministic bytes derived from the point.
type fakeOwner struct {
	ln       net.Listener
	game     string
	requests atomic.Int64
	budget   atomic.Uint32 // BudgetUs of the last request
	reject   atomic.Bool   // answer peer requests with MsgError
	wg       sync.WaitGroup

	mu    sync.Mutex
	conns map[net.Conn]struct{}
}

func newFakeOwner(t *testing.T, game string) *fakeOwner {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	f := &fakeOwner{ln: ln, game: game, conns: make(map[net.Conn]struct{})}
	f.serve()
	return f
}

// frameBytes is the fake's deterministic "render" of a point.
func frameBytes(pt geom.GridPoint) []byte {
	return []byte(fmt.Sprintf("frame(%d,%d)", pt.I, pt.J))
}

func (f *fakeOwner) serve() {
	f.wg.Add(1)
	go func() {
		defer f.wg.Done()
		for {
			nc, err := f.ln.Accept()
			if err != nil {
				return
			}
			f.mu.Lock()
			f.conns[nc] = struct{}{}
			f.mu.Unlock()
			f.wg.Add(1)
			go func() {
				defer f.wg.Done()
				defer func() {
					nc.Close()
					f.mu.Lock()
					delete(f.conns, nc)
					f.mu.Unlock()
				}()
				c := transport.NewConn(nc)
				m, err := c.Recv()
				if err != nil || m.Type != transport.MsgHello {
					return
				}
				c.Send(transport.Message{Type: transport.MsgHello, Payload: m.Payload})
				for {
					m, err := c.Recv()
					if err != nil {
						return
					}
					switch m.Type {
					case transport.MsgPeerFrameRequest:
						req, err := transport.DecodeFrameRequest(m.Payload)
						if err != nil {
							return
						}
						f.requests.Add(1)
						f.budget.Store(req.BudgetUs)
						if f.reject.Load() {
							c.Send(transport.Message{Type: transport.MsgError, Payload: []byte("overloaded")})
							continue
						}
						reply := transport.EncodeFrameReply(transport.FrameReply{
							Point:  req.Point,
							ReqID:  req.ReqID,
							Origin: transport.OriginLocal,
							Data:   frameBytes(req.Point),
						})
						c.Send(transport.Message{Type: transport.MsgPeerFrameReply, Payload: reply})
					case transport.MsgBye:
						return
					default:
						return
					}
				}
			}()
		}
	}()
}

func (f *fakeOwner) addr() string { return f.ln.Addr().String() }

func (f *fakeOwner) close() {
	f.ln.Close()
	f.mu.Lock()
	for nc := range f.conns {
		nc.Close()
	}
	f.mu.Unlock()
	f.wg.Wait()
}

// twoNode builds a cluster where self is a never-dialled placeholder
// address and the fake owner is the only peer, plus a grid point the
// fake owns.
func twoNode(t *testing.T, f *fakeOwner) (*Cluster, geom.GridPoint) {
	t.Helper()
	self := "127.0.0.1:1" // port 1: never dialled by these tests
	c, err := New(Config{
		Self:         self,
		Nodes:        []string{self, f.addr()},
		Game:         f.game,
		FetchTimeout: 2 * time.Second,
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	t.Cleanup(c.Close)
	for j := 0; j < 100; j++ {
		for i := 0; i < 100; i++ {
			pt := geom.GridPoint{I: i, J: j}
			if c.Owner(pt) == f.addr() {
				return c, pt
			}
		}
	}
	t.Fatal("no point owned by the fake peer in a 100x100 scan")
	return nil, geom.GridPoint{}
}

func TestNewValidatesMembership(t *testing.T) {
	if _, err := New(Config{Self: "a:1", Nodes: nil}); err == nil {
		t.Error("empty membership accepted")
	}
	if _, err := New(Config{Self: "a:1", Nodes: []string{"b:1"}}); err == nil {
		t.Error("self outside membership accepted")
	}
	if _, err := New(Config{Self: "a:1", Nodes: []string{"a:1", ""}}); err == nil {
		t.Error("empty node address accepted")
	}
	c, err := New(Config{Self: "a:1", Nodes: []string{"a:1", "b:1", "b:1"}})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer c.Close()
	if c.Size() != 2 {
		t.Errorf("duplicate node not deduplicated: size %d", c.Size())
	}
	if !c.Up(c.Self()) {
		t.Error("self reported down")
	}
}

func TestFetchRoundTripAndDeadlinePropagation(t *testing.T) {
	f := newFakeOwner(t, "viking")
	defer f.close()
	c, pt := twoNode(t, f)

	// The hop carries what is left of the deadline's budget when it leaves,
	// never the deadline itself: the owner reads no clock but its own.
	const budgetMs = 500
	deadline := sched.NowMs() + budgetMs
	reply, err := c.Fetch(pt, deadline, 0)
	if err != nil {
		t.Fatalf("Fetch: %v", err)
	}
	if string(reply.Data) != string(frameBytes(pt)) {
		t.Errorf("wrong frame bytes: %q", reply.Data)
	}
	if reply.Point != pt {
		t.Errorf("reply point %v, want %v", reply.Point, pt)
	}
	if got := f.budget.Load(); got == 0 || got > budgetMs*1000 {
		t.Errorf("deadline did not propagate: owner saw a %d µs budget, want (0, %d]", got, budgetMs*1000)
	}
	// Second fetch reuses the pooled connection: the fake accepts once
	// per connection, so a second dial would show up as a second
	// session; request count alone proves reuse is at least functional.
	if _, err := c.Fetch(pt, 0, 0); err != nil {
		t.Fatalf("pooled Fetch: %v", err)
	}
	if got := f.budget.Load(); got != 0 {
		t.Errorf("deadline-less fetch carried a %d µs budget, want 0", got)
	}
	if n := f.requests.Load(); n != 2 {
		t.Errorf("owner saw %d requests, want 2", n)
	}
}

func TestRemoteErrorKeepsPeerUp(t *testing.T) {
	f := newFakeOwner(t, "viking")
	defer f.close()
	f.reject.Store(true)
	c, pt := twoNode(t, f)

	_, err := c.Fetch(pt, 0, 0)
	var re *transport.RemoteError
	if !errors.As(err, &re) {
		t.Fatalf("want *transport.RemoteError, got %v", err)
	}
	if !c.Up(f.addr()) {
		t.Error("application-level rejection marked the peer down")
	}
	// The connection survives the rejection: a later accepted fetch
	// reuses it.
	f.reject.Store(false)
	if _, err := c.Fetch(pt, 0, 0); err != nil {
		t.Fatalf("Fetch after rejection: %v", err)
	}
}

func TestFetchFailureMarksDownAndProbeRecovers(t *testing.T) {
	f := newFakeOwner(t, "viking")
	c, pt := twoNode(t, f)
	addr := f.addr()

	if _, err := c.Fetch(pt, 0, 0); err != nil {
		t.Fatalf("Fetch: %v", err)
	}
	f.close()
	// The pooled connection is dead and new dials are refused; the
	// fetch must fail in bounded time and mark the peer down.
	start := time.Now()
	if _, err := c.Fetch(pt, 0, 0); err == nil {
		t.Fatal("Fetch against a dead peer succeeded")
	}
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Errorf("dead-peer fetch took %v; dial/IO bounds failed", elapsed)
	}
	if c.Up(addr) {
		t.Fatal("fetch failure did not mark the peer down")
	}
	if _, err := c.Fetch(pt, 0, 0); err == nil {
		t.Fatal("Fetch to a down peer should fail fast")
	}

	// Rebind the same port and let a probe round restore the peer.
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		t.Skipf("could not rebind %s: %v", addr, err)
	}
	f2 := &fakeOwner{ln: ln, game: "viking", conns: make(map[net.Conn]struct{})}
	f2.serve()
	defer f2.close()
	c.probeAll()
	if !c.Up(addr) {
		t.Fatal("probe did not mark the recovered peer up")
	}
	if _, err := c.Fetch(pt, 0, 0); err != nil {
		t.Fatalf("Fetch after recovery: %v", err)
	}
}

func TestHealthLoopMarksDownPeer(t *testing.T) {
	f := newFakeOwner(t, "viking")
	c, err := New(Config{
		Self:           "127.0.0.1:1",
		Nodes:          []string{"127.0.0.1:1", f.addr()},
		Game:           "viking",
		HealthInterval: 10 * time.Millisecond,
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer c.Close()
	c.Start()
	deadline := time.Now().Add(5 * time.Second)
	for c.PeersUp() != 1 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if c.PeersUp() != 1 {
		t.Fatal("health loop never saw the live peer")
	}
	f.close()
	for c.PeersUp() != 0 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if c.PeersUp() != 0 {
		t.Fatal("health loop never marked the dead peer down")
	}
}

package server

import (
	"math/rand"
	"net"
	"sync"
	"testing"
	"time"

	"coterie/internal/client"
	"coterie/internal/codec"
	"coterie/internal/fisync"
	"coterie/internal/geom"
	"coterie/internal/obs"
	"coterie/internal/trace"
	"coterie/internal/transport"
)

// TestUDPChannelCloseMidFIRound is the goroutine-leak regression test:
// a client whose FI round is in flight against a silent server must shut
// down cleanly when closed — the pending Sync returns, and Close joins
// the receive goroutine (whose reads are deadline-bounded per iteration)
// instead of leaking it against a socket nobody will ever write to.
func TestUDPChannelCloseMidFIRound(t *testing.T) {
	// A UDP socket that swallows everything: reads and drops.
	pc, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer pc.Close()
	go func() {
		buf := make([]byte, 64*1024)
		for {
			if _, _, err := pc.ReadFrom(buf); err != nil {
				return
			}
		}
	}()

	ch, err := client.DialUDP(pc.LocalAddr().String(), 1, true, nil)
	if err != nil {
		t.Fatal(err)
	}

	syncDone := make(chan error, 1)
	go func() {
		_, err := ch.Sync(fisync.State{Player: 1}, 5*time.Second)
		syncDone <- err
	}()
	time.Sleep(20 * time.Millisecond) // let the round get in flight

	closed := make(chan struct{})
	go func() {
		ch.Close()
		close(closed)
	}()

	select {
	case err := <-syncDone:
		if err == nil {
			t.Fatal("Sync returned nil against a silent server")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Sync still blocked after Close: cancel mid-FI-round leaked")
	}
	select {
	case <-closed:
	case <-time.After(2 * time.Second):
		t.Fatal("Close did not join the receive goroutine")
	}
	// Close is idempotent.
	if err := ch.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
}

// frameLog collects what a client.LiveConfig.FrameSink observed, for judging
// against the canonical reference after the session: every distinct byte
// string per point, and which points arrived intra (the frames a delta may
// have been coded against).
type frameLog struct {
	seen map[geom.GridPoint][][]byte
	held map[geom.GridPoint]bool
}

func newFrameLog() *frameLog {
	return &frameLog{seen: make(map[geom.GridPoint][][]byte), held: make(map[geom.GridPoint]bool)}
}

// sink is the client.LiveConfig.FrameSink; it runs on the clock goroutine.
func (l *frameLog) sink(pt geom.GridPoint, data []byte, pushed bool) {
	for _, prev := range l.seen[pt] {
		if bytesEqual(prev, data) {
			return
		}
	}
	l.seen[pt] = append(l.seen[pt], append([]byte(nil), data...))
	if codec.Kind(data) == codec.KindIntra {
		l.held[pt] = true
	}
}

// check asserts every observed frame is canonical: intra frames byte for
// byte, delta frames by their decoded raster and canonical delta bytes.
func (l *frameLog) check(t *testing.T, canon *canonical) {
	t.Helper()
	for pt, frames := range l.seen {
		for _, data := range frames {
			canon.checkSink(t, pt, data, l.held)
		}
	}
}

// TestLoopbackUDPByteIdentity is the acceptance e2e for the datagram
// frame path: the same trace replayed over the TCP arm and the UDP arm
// (push on, no loss) against warmed servers in the production
// configuration must put canonical frames in front of the display
// pipeline on both arms — intra frames byte-identical to the independent
// reference, delta frames its canonical deltas — and the UDP arm must
// actually exercise the new path (frames fetched over UDP, pushes
// reassembled, each request reply counted as a served frame).
func TestLoopbackUDPByteIdentity(t *testing.T) {
	env := poolEnv(t)
	tr := trace.Generate(env.Game, 2, 7)
	canon := newCanonical(env)

	type arm struct {
		name  string
		cfg   client.LiveConfig
		log   *frameLog
		live  *client.LiveReport
		srvRg *obs.Registry
	}
	arms := []*arm{
		{name: "tcp", cfg: client.LiveConfig{Speed: 4, DecodeFrames: true, IdleTimeout: 10 * time.Second}},
		{name: "udp", cfg: client.LiveConfig{Speed: 4, DecodeFrames: true, IdleTimeout: 10 * time.Second,
			UDPFrames: true, Push: true}},
	}
	for _, a := range arms {
		srv := New(env)
		srv.SetPushEnabled(true)
		a.srvRg = obs.NewRegistry()
		srv.Instrument(a.srvRg)
		addr := serveLive(t, srv)
		warmServer(t, srv, tr)

		a.log = newFrameLog()
		a.cfg.FrameSink = a.log.sink
		live, err := client.RunLive(env, addr, tr, 0, a.cfg)
		if err != nil {
			t.Fatalf("%s arm: %v", a.name, err)
		}
		if live.Metrics.Frames == 0 || len(a.log.seen) == 0 {
			t.Fatalf("%s arm displayed nothing: %+v", a.name, live)
		}
		a.live = live
		a.log.check(t, canon)
	}

	tcp, udp := arms[0], arms[1]
	common := 0
	for pt := range tcp.log.seen {
		if _, ok := udp.log.seen[pt]; ok {
			common++
		}
	}
	if common == 0 {
		t.Fatal("the two arms shared no grid points; byte identity asserted vacuously")
	}

	// The UDP arm must have used the datagram path, not just survived it.
	if udp.live.UDP == nil {
		t.Fatal("UDP arm report carries no datagram stats")
	}
	if udp.live.UDPFetches == 0 {
		t.Error("UDP arm satisfied no fetches over UDP")
	}
	if udp.live.UDP.PushedRecv == 0 {
		t.Error("server pushed no frames to a subscribed walking client")
	}
	if c := udp.live.UDP.Reassembly.Corrupt; c != 0 {
		t.Errorf("%d corrupt frames on a lossless loopback", c)
	}
	if n := udp.srvRg.Counter("server.udp.push_frames").Value(); n == 0 {
		t.Error("server counted no pushes")
	}
	// Every UDP request reply is a served frame in the server's books, like
	// a TCP reply: the reassembled frames that were not pushes are replies.
	replies := udp.live.UDP.Reassembly.Delivered - udp.live.UDP.PushedRecv
	if replies == 0 {
		t.Error("UDP arm reassembled no request replies")
	}
	if n, want := udp.srvRg.Counter("server.frames_served").Value(), replies+udp.live.TCPFallbacks; n < want {
		t.Errorf("server.frames_served = %d, below the %d UDP replies the client reassembled + %d TCP fallbacks",
			n, replies, udp.live.TCPFallbacks)
	}
}

// lossyPacketConn drops a seeded share of the datagrams a server socket
// receives and sends, so loss hits frame requests, NACKs and FI uploads
// as well as frame chunks and FI replies.
type lossyPacketConn struct {
	net.PacketConn
	rate float64
	mu   sync.Mutex
	rng  *rand.Rand
	lost int
}

func (c *lossyPacketConn) drop() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.rng.Float64() < c.rate {
		c.lost++
		return true
	}
	return false
}

func (c *lossyPacketConn) ReadFrom(p []byte) (int, net.Addr, error) {
	for {
		n, addr, err := c.PacketConn.ReadFrom(p)
		if err != nil || !c.drop() {
			return n, addr, err
		}
	}
}

func (c *lossyPacketConn) WriteTo(p []byte, addr net.Addr) (int, error) {
	if c.drop() {
		return len(p), nil
	}
	return c.PacketConn.WriteTo(p, addr)
}

// TestLoopbackUDPUnderLoss runs the UDP arm through a server socket that
// drops 5% of datagrams each way: the FEC/NACK machinery must deliver zero
// corrupt frames, the session must complete, and every frame that reached
// the pipeline must still be canonical.
func TestLoopbackUDPUnderLoss(t *testing.T) {
	env := poolEnv(t)
	tr := trace.Generate(env.Game, 2, 7)
	srv := New(env)
	srv.SetPushEnabled(true)
	lossy := &lossyPacketConn{rate: 0.05, rng: rand.New(rand.NewSource(1))}
	addr := serveLiveWrapped(t, srv, func(pc net.PacketConn) net.PacketConn {
		lossy.PacketConn = pc
		return lossy
	})
	warmServer(t, srv, tr)

	log := newFrameLog()
	live, err := client.RunLive(env, addr, tr, 0, client.LiveConfig{
		Speed:        4,
		DecodeFrames: true,
		IdleTimeout:  10 * time.Second,
		UDPFrames:    true,
		Push:         true,
		FrameSink:    log.sink,
	})
	if err != nil {
		t.Fatal(err)
	}
	if live.Metrics.Frames == 0 {
		t.Fatal("session displayed no frames under 5% loss")
	}
	if live.UDP == nil {
		t.Fatal("no UDP stats")
	}
	if live.UDP.Reassembly.Corrupt != 0 {
		t.Fatalf("%d corrupt frames delivered under loss; CRC gate failed", live.UDP.Reassembly.Corrupt)
	}
	log.check(t, newCanonical(env))
	lossy.mu.Lock()
	defer lossy.mu.Unlock()
	if lossy.lost == 0 {
		t.Error("the lossy socket dropped nothing; loss asserted vacuously")
	}
	t.Logf("%d datagrams lost; client sent %d NACKs, %d FI rounds dropped", lossy.lost, live.UDP.NacksSent, live.FIDrops)
}

// TestServeFIUDPDropsUntypedAndUnsubscribedFI pins the one datagram wire:
// an untyped 30-byte state (the old FI upload) is malformed, a typed FI
// upload from an address that never subscribed is stale, neither gets a
// reply or reaches the hub, and a subscribed channel keeps syncing.
func TestServeFIUDPDropsUntypedAndUnsubscribedFI(t *testing.T) {
	srv := New(poolEnv(t))
	reg := obs.NewRegistry()
	srv.Instrument(reg)
	addr := serveLive(t, srv)

	ch, err := client.DialUDP(addr, 2, false, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer ch.Close()
	if _, err := ch.Sync(fisync.State{Player: 2, Seq: 1, Pos: geom.V2(1, 1)}, time.Second); err != nil {
		t.Fatal(err)
	}

	raw, err := net.Dial("udp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	st := fisync.State{Player: 1, Seq: 1, Pos: geom.V2(2, 2)}
	if _, err := raw.Write(st.Encode(nil)); err != nil {
		t.Fatal(err)
	}
	if _, err := raw.Write(transport.EncodeFI(nil, st)); err != nil {
		t.Fatal(err)
	}

	// The server reads one socket in order, so once this round trip is
	// answered both raw datagrams have been handled.
	states, err := ch.Sync(fisync.State{Player: 2, Seq: 2, Pos: geom.V2(1, 2)}, time.Second)
	if err != nil {
		t.Fatalf("subscribed channel stopped syncing: %v", err)
	}
	if len(states) != 0 {
		t.Errorf("subscribed channel sees %+v; the dropped uploads reached the hub", states)
	}
	counters := reg.Snapshot().Counters
	if got := counters["server.udp.dropped_malformed"]; got != 1 {
		t.Errorf("server.udp.dropped_malformed = %d, want 1 (the untyped state)", got)
	}
	if got := counters["server.udp.dropped_stale"]; got != 1 {
		t.Errorf("server.udp.dropped_stale = %d, want 1 (the unsubscribed FI upload)", got)
	}
	raw.SetReadDeadline(time.Now().Add(100 * time.Millisecond))
	if n, err := raw.Read(make([]byte, 64*1024)); err == nil {
		t.Errorf("server answered a dropped upload with %d bytes", n)
	}
}

package server

import (
	"net"
	"testing"
	"time"

	"coterie/internal/fisync"
	"coterie/internal/geom"
	"coterie/internal/obs"
	"coterie/internal/trace"
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

	ch, err := DialUDP(pc.LocalAddr().String(), 1, true, nil)
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

// TestLoopbackUDPByteIdentity is the acceptance e2e for the datagram
// frame path: the same trace replayed over the TCP arm and the UDP arm
// (push on, no loss) against warmed servers must put byte-identical
// frames in front of the display pipeline for every grid point both arms
// visited — and the UDP arm must actually exercise the new path (frames
// fetched over UDP, pushes reassembled). Delta coding is off so both arms
// serve canonical store bytes, making per-point byte equality exact
// rather than merely perceptual.
func TestLoopbackUDPByteIdentity(t *testing.T) {
	env := poolEnv(t)
	tr := trace.Generate(env.Game, 2, 7)

	type arm struct {
		name  string
		cfg   LiveConfig
		seen  map[geom.GridPoint][]byte
		live  *LiveReport
		srvRg *obs.Registry
	}
	arms := []*arm{
		{name: "tcp", cfg: LiveConfig{Speed: 4, DecodeFrames: true, IdleTimeout: 10 * time.Second}},
		{name: "udp", cfg: LiveConfig{Speed: 4, DecodeFrames: true, IdleTimeout: 10 * time.Second,
			UDPFrames: true, Push: true}},
	}
	for _, a := range arms {
		srv := New(env)
		srv.SetDeltaEnabled(false)
		srv.SetPushEnabled(true)
		a.srvRg = obs.NewRegistry()
		srv.Instrument(a.srvRg)
		addr := serveLive(t, srv)
		warmServer(t, srv, tr)

		a.seen = make(map[geom.GridPoint][]byte)
		seen := a.seen
		a.cfg.FrameSink = func(pt geom.GridPoint, data []byte, pushed bool) {
			if prev, ok := seen[pt]; ok {
				if !bytesEqual(prev, data) {
					t.Errorf("point %v served two different byte strings within one arm", pt)
				}
				return
			}
			seen[pt] = append([]byte(nil), data...)
		}
		live, err := RunLive(env, addr, tr, 0, a.cfg)
		if err != nil {
			t.Fatalf("%s arm: %v", a.name, err)
		}
		if live.Metrics.Frames == 0 || len(a.seen) == 0 {
			t.Fatalf("%s arm displayed nothing: %+v", a.name, live)
		}
		a.live = live
	}

	tcp, udp := arms[0], arms[1]
	common := 0
	for pt, want := range tcp.seen {
		got, ok := udp.seen[pt]
		if !ok {
			continue
		}
		common++
		if !bytesEqual(got, want) {
			t.Errorf("point %v: UDP arm bytes (%d) differ from TCP arm (%d)", pt, len(got), len(want))
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
}

// TestLoopbackUDPUnderLoss injects 1% receive-side datagram loss into
// the UDP arm: the FEC/NACK machinery must deliver zero corrupt frames,
// the session must complete, and every frame that reached the pipeline
// must still be byte-identical to the warmed store's canonical bytes.
func TestLoopbackUDPUnderLoss(t *testing.T) {
	env := poolEnv(t)
	tr := trace.Generate(env.Game, 2, 7)
	srv, addr := startLiveServer(t)
	srv.SetDeltaEnabled(false)
	srv.SetPushEnabled(true)
	warmServer(t, srv, tr)

	seen := map[geom.GridPoint][]byte{}
	live, err := RunLive(env, addr, tr, 0, LiveConfig{
		Speed:        4,
		DecodeFrames: true,
		IdleTimeout:  10 * time.Second,
		UDPFrames:    true,
		Push:         true,
		LossRate:     0.01,
		LossSeed:     1,
		FrameSink: func(pt geom.GridPoint, data []byte, pushed bool) {
			if prev, ok := seen[pt]; ok && !bytesEqual(prev, data) {
				t.Errorf("point %v: differing bytes under loss", pt)
			}
			seen[pt] = append([]byte(nil), data...)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if live.Metrics.Frames == 0 {
		t.Fatal("session displayed no frames under 1% loss")
	}
	if live.UDP == nil {
		t.Fatal("no UDP stats")
	}
	if live.UDP.Reassembly.Corrupt != 0 {
		t.Fatalf("%d corrupt frames delivered under loss; CRC gate failed", live.UDP.Reassembly.Corrupt)
	}
	// Every displayed point matches the server's canonical store bytes.
	for pt, data := range seen {
		want, err := srv.FrameFor(pt)
		if err != nil {
			t.Fatalf("server frame %v: %v", pt, err)
		}
		if !bytesEqual(data, want) {
			t.Errorf("point %v: displayed bytes differ from store bytes under loss", pt)
		}
	}
}

// TestServeFIUDPLegacyClientUnaffected pins wire compatibility: an
// unsubscribed FIClient (the pre-datagram-path client) must keep getting
// raw concatenated state replies from a server that also speaks the
// frame path.
func TestServeFIUDPLegacyClientUnaffected(t *testing.T) {
	srv, addr := startLiveServer(t)
	srv.SetPushEnabled(true)

	// Another player's state, via a subscribed channel.
	ch, err := DialUDP(addr, 2, true, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer ch.Close()
	if _, err := ch.Sync(fisync.State{Player: 2, Seq: 1, Pos: geom.V2(1, 1)}, time.Second); err != nil {
		t.Fatal(err)
	}

	legacy, err := DialFI(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer legacy.Close()
	states, err := legacy.Sync(fisync.State{Player: 1, Seq: 1, Pos: geom.V2(2, 2)}, time.Second)
	if err != nil {
		t.Fatalf("legacy FI sync against a frame-path server: %v", err)
	}
	if len(states) != 1 || states[0].Player != 2 {
		t.Fatalf("legacy client got states %+v, want player 2's", states)
	}
}

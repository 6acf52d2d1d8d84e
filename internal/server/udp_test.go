package server

import (
	"errors"
	"net"
	"testing"
	"time"

	"coterie/internal/client"
	"coterie/internal/fisync"
	"coterie/internal/geom"
	"coterie/internal/obs"
	"coterie/internal/transport"
)

func startFIUDP(t *testing.T) string {
	t.Helper()
	srv := New(poolEnv(t))
	pc, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { pc.Close() })
	go srv.ServeFIUDP(pc)
	return pc.LocalAddr().String()
}

func TestFIUDPRoundTrip(t *testing.T) {
	addr := startFIUDP(t)
	c1, err := client.DialUDP(addr, 1, false, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer c1.Close()
	c2, err := client.DialUDP(addr, 2, false, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()

	// First player alone: empty snapshot.
	states, err := c1.Sync(fisync.State{Player: 1, Seq: 1, Pos: geom.V2(1, 2)}, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if len(states) != 0 {
		t.Fatalf("solo snapshot = %v", states)
	}
	// Second player sees the first.
	states, err = c2.Sync(fisync.State{Player: 2, Seq: 1, Pos: geom.V2(3, 4)}, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if len(states) != 1 || states[0].Player != 1 || states[0].Pos != geom.V2(1, 2) {
		t.Fatalf("snapshot = %+v", states)
	}
}

func TestFIUDPPerFrameRate(t *testing.T) {
	// The sync must comfortably run at frame rate: 60 round trips well
	// under a second on loopback.
	addr := startFIUDP(t)
	c, err := client.DialUDP(addr, 1, false, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	start := time.Now()
	for i := 1; i <= 60; i++ {
		if _, err := c.Sync(fisync.State{Player: 1, Seq: uint32(i)}, time.Second); err != nil {
			t.Fatal(err)
		}
	}
	if d := time.Since(start); d > 2*time.Second {
		t.Fatalf("60 syncs took %v", d)
	}
}

// scriptedPacketConn hands ServeFIUDP a fixed sequence of datagrams, all
// from one address, and fails the first failSends sends with sendErr,
// recording the rest. Once the datagrams run out, ReadFrom reports
// net.ErrClosed.
type scriptedPacketConn struct {
	datagrams [][]byte
	failSends int
	sendErr   error
	sent      [][]byte
}

func (c *scriptedPacketConn) ReadFrom(p []byte) (int, net.Addr, error) {
	if len(c.datagrams) == 0 {
		return 0, nil, net.ErrClosed
	}
	d := c.datagrams[0]
	c.datagrams = c.datagrams[1:]
	n := copy(p, d)
	return n, &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1), Port: 9}, nil
}

func (c *scriptedPacketConn) WriteTo(p []byte, addr net.Addr) (int, error) {
	if c.failSends > 0 {
		c.failSends--
		return 0, c.sendErr
	}
	c.sent = append(c.sent, append([]byte(nil), p...))
	return len(p), nil
}

func (c *scriptedPacketConn) Close() error                       { return nil }
func (c *scriptedPacketConn) LocalAddr() net.Addr                { return &net.UDPAddr{} }
func (c *scriptedPacketConn) SetDeadline(t time.Time) error      { return nil }
func (c *scriptedPacketConn) SetReadDeadline(t time.Time) error  { return nil }
func (c *scriptedPacketConn) SetWriteDeadline(t time.Time) error { return nil }

// TestFIUDPSendErrorCountedAndServingContinues: a failed FI reply (say,
// sendto to a source port 0) is counted and the loop keeps serving — the
// next upload is answered, and only the closed socket ends ServeFIUDP,
// with nil.
func TestFIUDPSendErrorCountedAndServingContinues(t *testing.T) {
	srv := New(poolEnv(t))
	reg := obs.NewRegistry()
	srv.Instrument(reg)
	st := fisync.State{Player: 1, Seq: 1, Pos: geom.V2(1, 2)}
	pc := &scriptedPacketConn{
		datagrams: [][]byte{
			transport.EncodeSub(nil, transport.Sub{Player: 1}),
			transport.EncodeFI(nil, st),
			transport.EncodeFI(nil, fisync.State{Player: 1, Seq: 2, Pos: geom.V2(1, 3)}),
		},
		failSends: 1,
		sendErr:   errors.New("sendto: invalid argument"),
	}
	if err := srv.ServeFIUDP(pc); err != nil {
		t.Fatalf("ServeFIUDP returned %v, want nil at the closed socket", err)
	}
	if got := reg.Counter("server.udp_send_errors").Value(); got != 1 {
		t.Fatalf("udp_send_errors = %d, want 1", got)
	}
	if len(pc.sent) != 1 || transport.DgramType(pc.sent[0]) != transport.DgramFIReply {
		t.Fatalf("sent %d datagrams after the failed reply, want the second upload's FI reply", len(pc.sent))
	}
}

func TestFIUDPIgnoresGarbage(t *testing.T) {
	addr := startFIUDP(t)
	conn, err := net.Dial("udp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write([]byte{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	// The server must survive and keep answering valid requests.
	c, err := client.DialUDP(addr, 7, false, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Sync(fisync.State{Player: 7, Seq: 1}, time.Second); err != nil {
		t.Fatal(err)
	}
}

package server

import (
	"fmt"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"coterie/internal/client"
	"coterie/internal/obs"
	"coterie/internal/transport"
)

// TestServeAccountingIdenticalAcrossTransports asks two fresh servers for
// the same cold point, one over each way in — a TCP session and a UDP
// request — each carrying the same 5 s budget. Both go through serve, so
// each renders once, returns the same exact intra bytes and books exactly
// one served frame (frames_served, frame_bytes_sent, one deadline met).
func TestServeAccountingIdenticalAcrossTransports(t *testing.T) {
	env := poolEnv(t)
	game := env.Game.Spec.Name
	pt := env.Game.Scene.Grid.Snap(env.Game.Spawn)
	const budgetUs = 5_000_000

	fetchers := []struct {
		name  string
		fetch func(addr string) ([]byte, error)
	}{
		{"tcp client", func(addr string) ([]byte, error) {
			c, err := client.Dial(addr, game, 3)
			if err != nil {
				return nil, err
			}
			defer c.Close()
			reply, err := c.Fetch(pt, budgetUs)
			if err == nil && reply.Kind != transport.FrameIntra {
				err = fmt.Errorf("first fetch of a session served as kind %d, want intra", reply.Kind)
			}
			return reply.Data, err
		}},
		{"udp request", func(addr string) ([]byte, error) {
			ch, err := client.DialUDP(addr, 3, false, nil)
			if err != nil {
				return nil, err
			}
			defer ch.Close()
			data, ok := ch.Fetch(pt, budgetUs*time.Microsecond)
			if !ok {
				return nil, fmt.Errorf("no UDP reply within the budget")
			}
			return data, nil
		}},
	}

	var first []byte
	for _, f := range fetchers {
		srv := New(env)
		reg := obs.NewRegistry()
		srv.Instrument(reg)
		data, err := f.fetch(serveLive(t, srv))
		if err != nil {
			t.Fatalf("%s: %v", f.name, err)
		}
		if first == nil {
			first = data
			newCanonical(env).checkIntra(t, pt, data)
		} else if !bytesEqual(data, first) {
			t.Errorf("%s: bytes differ from the TCP client's", f.name)
		}

		counters := reg.Snapshot().Counters
		want := map[string]int64{
			"server.frames_rendered":  1,
			"server.frames_served":    1,
			"server.frame_bytes_sent": int64(len(data)),
			"server.deadline_met":     1,
			"server.deadline_misses":  0,
		}
		for name, n := range want {
			if got := counters[name]; got != n {
				t.Errorf("%s: %s = %d, want %d", f.name, name, got, n)
			}
		}
		if served, rendered := srv.Stats(); served != 1 || rendered != 1 {
			t.Errorf("%s: Stats() = served %d rendered %d, want 1 and 1", f.name, served, rendered)
		}
	}
}

// countingPacketConn is a socket that reads nothing and counts its sends.
type countingPacketConn struct {
	scriptedPacketConn
	sent atomic.Int64
}

func (c *countingPacketConn) WriteTo(p []byte, addr net.Addr) (int, error) {
	c.sent.Add(1)
	return len(p), nil
}

func floodAddr(i int) net.Addr {
	return &net.UDPAddr{IP: net.IPv4(10, byte(i>>16), byte(i>>8), byte(i)), Port: 4000}
}

// TestUDPSessionTableBounded floods one listener with subscriptions from
// 10,000 distinct source addresses — a client re-dialling every round, or
// a spoofed-source flood. The session table must stay at its cap, dropping
// the sessions idle longest: one that keeps talking is never the victim.
func TestUDPSessionTableBounded(t *testing.T) {
	srv := New(poolEnv(t))
	u := &udpServe{pc: &countingPacketConn{}, sem: make(chan struct{}, udpReqWorkers)}
	sub := transport.EncodeSub(nil, transport.Sub{Player: 1})
	live := &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1), Port: 5000}

	srv.handleDgram(u, live, sub, 0)
	for i := 0; i < 10000; i++ {
		srv.handleDgram(u, floodAddr(i), sub, 0)
		if i%(maxUDPSessions/2) == 0 {
			// What a Req, a Nack or an FI upload does first: look the
			// session up, which marks it heard from.
			if u.session(live) == nil {
				t.Fatalf("the live session was evicted after %d foreign subscriptions", i+1)
			}
		}
	}
	if n := u.sub.Len(); n > maxUDPSessions {
		t.Errorf("%d sessions after the flood, want <= %d", n, maxUDPSessions)
	}
	if u.session(live) == nil {
		t.Error("the live session did not survive the flood")
	}
	if u.session(floodAddr(0)) != nil {
		t.Error("the oldest idle session survived 10,000 newer ones")
	}
}

// TestUDPRequestOverflowCounted: a UDP frame request that finds every
// request worker busy is dropped — the client's budget expires and it falls
// back to TCP — and the drop shows up as server.udp.dropped_overflow.
func TestUDPRequestOverflowCounted(t *testing.T) {
	srv := New(poolEnv(t))
	reg := obs.NewRegistry()
	srv.Instrument(reg)
	pc := &countingPacketConn{}
	u := &udpServe{pc: pc, sem: make(chan struct{}, udpReqWorkers)}
	addr := &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1), Port: 5000}
	srv.handleDgram(u, addr, transport.EncodeSub(nil, transport.Sub{Player: 1}), 0)
	for i := 0; i < udpReqWorkers; i++ {
		u.sem <- struct{}{}
	}

	pt := srv.env.Game.Scene.Grid.Snap(srv.env.Game.Spawn)
	srv.handleDgram(u, addr, transport.EncodeDgramReq(nil, transport.FrameRequest{Player: 1, Point: pt, ReqID: 1}), 0)

	counters := reg.Snapshot().Counters
	if got := counters["server.udp.dropped_overflow"]; got != 1 {
		t.Errorf("server.udp.dropped_overflow = %d, want 1", got)
	}
	if got := counters["server.udp.frame_reqs"]; got != 0 {
		t.Errorf("server.udp.frame_reqs = %d, want 0: the dropped request was not served", got)
	}
	if served, rendered := srv.Stats(); served != 0 || rendered != 0 || pc.sent.Load() != 0 {
		t.Errorf("dropped request still served %d / rendered %d frames, sent %d datagrams", served, rendered, pc.sent.Load())
	}
}

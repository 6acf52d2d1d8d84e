package client

import (
	"errors"
	"net"
	"testing"
	"time"

	"coterie/internal/geom"
	"coterie/internal/transport"
)

// scriptedServer accepts one connection, answers the hello as told, then
// answers each frame request with what answer returns for it.
func scriptedServer(t *testing.T, acceptGame string, answer func(req transport.FrameRequest) transport.Message) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		nc, err := ln.Accept()
		if err != nil {
			return
		}
		defer nc.Close()
		c := transport.NewConn(nc)
		m, err := c.Recv()
		if err != nil {
			return
		}
		if h, err := transport.DecodeHello(m.Payload); err != nil || h.Game != acceptGame {
			c.Send(transport.Message{Type: transport.MsgError, Payload: []byte("wrong game")})
			return
		}
		c.Send(m)
		for {
			m, err := c.Recv()
			if err != nil {
				return
			}
			req, err := transport.DecodeFrameRequest(m.Payload)
			if err != nil {
				return
			}
			c.Send(answer(req))
		}
	}()
	return ln.Addr().String()
}

func replyTo(req transport.FrameRequest) transport.Message {
	return transport.Message{Type: transport.MsgFrameReply, Payload: transport.EncodeFrameReply(
		transport.FrameReply{Point: req.Point, ReqID: req.ReqID, Data: []byte("frame")})}
}

// TestClientHelloRejected: a hello the server answers with MsgError is a
// *transport.RemoteError, and the dial hands back no connection.
func TestClientHelloRejected(t *testing.T) {
	addr := scriptedServer(t, "pool", replyTo)
	c, err := dial(addr, time.Second, transport.Hello{Player: 1, Game: "viking"})
	var re *transport.RemoteError
	if !errors.As(err, &re) || re.Msg != "wrong game" {
		t.Fatalf("dial = %v, want a *transport.RemoteError carrying the server's message", err)
	}
	if c != nil {
		t.Fatal("dial returned a client along with the rejection")
	}
}

// TestClientHelloBounded: a server that accepts and then says nothing
// fails the dial within the timeout instead of hanging.
func TestClientHelloBounded(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	start := time.Now()
	if _, err := dial(ln.Addr().String(), 100*time.Millisecond, transport.Hello{Game: "pool"}); err == nil {
		t.Fatal("handshake with a silent server succeeded")
	}
	if d := time.Since(start); d > 5*time.Second {
		t.Fatalf("silent server held the dial for %v", d)
	}
}

// TestClientDo covers the frame exchange: a MsgError answer is a
// *transport.RemoteError that leaves the connection usable, the reply must
// be a MsgFrameReply, and it must echo the request id.
func TestClientDo(t *testing.T) {
	pt := geom.GridPoint{I: 3, J: 4}
	addr := scriptedServer(t, "pool", func(req transport.FrameRequest) transport.Message {
		switch req.ReqID {
		case 1:
			return transport.Message{Type: transport.MsgError, Payload: []byte("overloaded")}
		case 4:
			req.ReqID = 99 // a reply to some other request
		case 5:
			m := replyTo(req)
			m.Type = transport.MsgHello // a well-formed reply under the wrong type
			return m
		}
		return replyTo(req)
	})
	c, err := Dial(addr, "pool", 1)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	_, err = c.Fetch(pt, 0) // request 1
	var re *transport.RemoteError
	if !errors.As(err, &re) || re.Msg != "overloaded" {
		t.Fatalf("shed request = %v, want a *transport.RemoteError", err)
	}
	for id := uint32(2); id <= 3; id++ {
		reply, err := c.Fetch(pt, 0)
		if err != nil {
			t.Fatalf("request %d after a rejection: %v (the connection must stay usable)", id, err)
		}
		if reply.Point != pt || reply.ReqID != id || string(reply.Data) != "frame" {
			t.Fatalf("request %d: reply %+v", id, reply)
		}
	}
	if _, err := c.Fetch(pt, 0); err == nil || errors.As(err, &re) {
		t.Fatalf("reply echoing the wrong request id = %v, want a non-remote error", err)
	}
	if _, err := c.Fetch(pt, 0); err == nil || errors.As(err, &re) {
		t.Fatalf("reply of the wrong message type = %v, want a non-remote error", err)
	}
}

package transport

import (
	"errors"
	"net"
	"testing"
	"time"

	"coterie/internal/geom"
)

// scriptedServer accepts one connection, answers the hello as told, then
// answers each frame request with what answer returns for it.
func scriptedServer(t *testing.T, acceptGame string, answer func(typ MsgType, req FrameRequest) Message) string {
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
		c := NewConn(nc)
		m, err := c.Recv()
		if err != nil {
			return
		}
		if h, err := DecodeHello(m.Payload); err != nil || h.Game != acceptGame {
			c.Send(Message{Type: MsgError, Payload: []byte("wrong game")})
			return
		}
		c.Send(m)
		for {
			m, err := c.Recv()
			if err != nil {
				return
			}
			req, err := DecodeFrameRequest(m.Payload)
			if err != nil {
				return
			}
			c.Send(answer(m.Type, req))
		}
	}()
	return ln.Addr().String()
}

func replyTo(typ MsgType, req FrameRequest) Message {
	return Message{Type: typ + 1, Payload: EncodeFrameReply(FrameReply{Point: req.Point, ReqID: req.ReqID, Data: []byte("frame")})}
}

// TestClientHelloRejected: a hello the server answers with MsgError is a
// *RemoteError, and DialClient hands back no connection.
func TestClientHelloRejected(t *testing.T) {
	addr := scriptedServer(t, "pool", replyTo)
	c, err := DialClient(addr, time.Second, Hello{Player: 1, Game: "viking"})
	var re *RemoteError
	if !errors.As(err, &re) || re.Msg != "wrong game" {
		t.Fatalf("DialClient = %v, want a *RemoteError carrying the server's message", err)
	}
	if c != nil {
		t.Fatal("DialClient returned a client along with the rejection")
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
	if _, err := DialClient(ln.Addr().String(), 100*time.Millisecond, Hello{Game: "pool"}); err == nil {
		t.Fatal("handshake with a silent server succeeded")
	}
	if d := time.Since(start); d > 5*time.Second {
		t.Fatalf("silent server held the dial for %v", d)
	}
}

// TestClientDo covers the exchange both request types share: a MsgError
// answer is a *RemoteError that leaves the connection usable, the reply
// must be of the request's own reply type, and it must echo the request id.
func TestClientDo(t *testing.T) {
	pt := geom.GridPoint{I: 3, J: 4}
	addr := scriptedServer(t, "pool", func(typ MsgType, req FrameRequest) Message {
		switch req.ReqID {
		case 1:
			return Message{Type: MsgError, Payload: []byte("overloaded")}
		case 4:
			req.ReqID = 99 // a reply to some other request
		case 5:
			return replyTo(MsgFrameRequest, req) // MsgFrameReply to a peer request
		}
		return replyTo(typ, req)
	})
	c, err := DialClient(addr, time.Second, Hello{Player: 1, Game: "pool"})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	_, err = c.Do(MsgFrameRequest, FrameRequest{Point: pt, ReqID: 1})
	var re *RemoteError
	if !errors.As(err, &re) || re.Msg != "overloaded" {
		t.Fatalf("shed request = %v, want a *RemoteError", err)
	}
	for id, typ := range map[uint32]MsgType{2: MsgFrameRequest, 3: MsgPeerFrameRequest} {
		reply, err := c.Do(typ, FrameRequest{Point: pt, ReqID: id})
		if err != nil {
			t.Fatalf("request %d after a rejection: %v (the connection must stay usable)", id, err)
		}
		if reply.Point != pt || reply.ReqID != id || string(reply.Data) != "frame" {
			t.Fatalf("request %d: reply %+v", id, reply)
		}
	}
	if _, err := c.Do(MsgFrameRequest, FrameRequest{Point: pt, ReqID: 4}); err == nil || errors.As(err, &re) {
		t.Fatalf("reply echoing the wrong request id = %v, want a non-remote error", err)
	}
	if _, err := c.Do(MsgPeerFrameRequest, FrameRequest{Point: pt, ReqID: 5}); err == nil || errors.As(err, &re) {
		t.Fatalf("client reply to a peer request = %v, want a non-remote error", err)
	}
}

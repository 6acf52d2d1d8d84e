package transport

import (
	"bytes"
	"math"
	"net"
	"testing"
	"testing/quick"
	"time"

	"coterie/internal/fisync"
	"coterie/internal/geom"
)

func TestMessageRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	msgs := []Message{
		{Type: MsgHello, Payload: []byte("hi")},
		{Type: MsgFrameRequest, Payload: make([]byte, 9)},
		{Type: MsgBye},
	}
	for _, m := range msgs {
		if err := WriteMessage(&buf, m); err != nil {
			t.Fatal(err)
		}
	}
	for _, want := range msgs {
		got, err := ReadMessage(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if got.Type != want.Type || !bytes.Equal(got.Payload, want.Payload) {
			t.Fatalf("got %+v want %+v", got, want)
		}
	}
}

func TestMessageRejectsOversize(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteMessage(&buf, Message{Type: MsgFrameReply, Payload: make([]byte, MaxPayload+1)}); err == nil {
		t.Fatal("oversized write accepted")
	}
	// Forged oversized header.
	hdr := []byte{byte(MsgFrameReply), 0xFF, 0xFF, 0xFF, 0xFF}
	if _, err := ReadMessage(bytes.NewReader(hdr)); err == nil {
		t.Fatal("oversized read accepted")
	}
}

func TestReadMessageTruncated(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteMessage(&buf, Message{Type: MsgHello, Payload: []byte("hello")}); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	// Truncated payload: header promises 5 bytes, stream ends early.
	if _, err := ReadMessage(bytes.NewReader(data[:len(data)-2])); err == nil {
		t.Fatal("truncated payload accepted")
	}
	// Truncated header: fewer than the 5 framing bytes.
	for n := 0; n < 5; n++ {
		if _, err := ReadMessage(bytes.NewReader(data[:n])); err == nil {
			t.Fatalf("truncated header (%d bytes) accepted", n)
		}
	}
}

func TestReadMessageUnknownType(t *testing.T) {
	for _, typ := range []byte{0, byte(maxMsgType) + 1, 0x7F, 0xFF} {
		hdr := []byte{typ, 0, 0, 0, 0}
		if _, err := ReadMessage(bytes.NewReader(hdr)); err == nil {
			t.Fatalf("unknown type %d accepted", typ)
		}
	}
}

func TestConnRecvFailsCleanly(t *testing.T) {
	// Recv over a Conn must surface framing errors (and make them sticky)
	// rather than blocking or yielding garbage.
	cases := map[string][]byte{
		"unknown type":      {0x7F, 0, 0, 0, 0},
		"oversized length":  {byte(MsgFrameReply), 0xFF, 0xFF, 0xFF, 0xFF},
		"truncated header":  {byte(MsgHello), 0, 0},
		"truncated payload": {byte(MsgHello), 0, 0, 0, 9, 'h', 'i'},
	}
	for name, raw := range cases {
		c := NewConn(bytes.NewBuffer(raw))
		if _, err := c.Recv(); err == nil {
			t.Errorf("%s: Recv accepted", name)
			continue
		}
		if _, err := c.Recv(); err == nil {
			t.Errorf("%s: error not sticky", name)
		}
	}
}

func TestHelloRoundTrip(t *testing.T) {
	h := Hello{Player: 3, Game: "viking"}
	got, err := DecodeHello(EncodeHello(h))
	if err != nil || got != h {
		t.Fatalf("got %+v err %v", got, err)
	}
	if _, err := DecodeHello([]byte{1}); err == nil {
		t.Fatal("short hello accepted")
	}
	if _, err := DecodeHello([]byte{1, 10, 'a'}); err == nil {
		t.Fatal("truncated hello accepted")
	}
}

func TestFrameRequestRoundTrip(t *testing.T) {
	f := func(player uint8, i, j int32, reqID, budgetUs uint32) bool {
		r := FrameRequest{
			Player:   player,
			Point:    geom.GridPoint{I: int(i), J: int(j)},
			ReqID:    reqID,
			BudgetUs: budgetUs,
		}
		got, err := DecodeFrameRequest(EncodeFrameRequest(r))
		return err == nil && got == r
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestFrameRequestRejectsTruncated(t *testing.T) {
	full := EncodeFrameRequest(FrameRequest{Player: 1, ReqID: 7, BudgetUs: 16700})
	for n := 0; n < len(full); n++ {
		if _, err := DecodeFrameRequest(full[:n]); err == nil {
			t.Fatalf("truncated request (%d of %d bytes) accepted", n, len(full))
		}
	}
	// Trailing garbage must be rejected too: the request is fixed-size.
	if _, err := DecodeFrameRequest(append(append([]byte(nil), full...), 0)); err == nil {
		t.Fatal("oversized request accepted")
	}
}

// TestBudgetUs pins the one client-side wait → budget conversion: no
// deadline is 0, an armed deadline that has already passed is 1 µs (late,
// not deadline-less), waits round down to whole microseconds, and a huge
// wait saturates instead of wrapping.
func TestBudgetUs(t *testing.T) {
	for _, c := range []struct {
		wait  time.Duration
		armed bool
		want  uint32
	}{
		{0, false, 0},
		{time.Second, false, 0},
		{-time.Second, false, 0},
		{-time.Second, true, 1},
		{0, true, 1},
		{500 * time.Nanosecond, true, 1},
		{16700 * time.Microsecond, true, 16700},
		{16700*time.Microsecond + 999, true, 16700},
		{time.Duration(math.MaxUint32) * time.Microsecond, true, math.MaxUint32},
		{100 * time.Hour, true, math.MaxUint32},
		{time.Duration(math.MaxInt64), true, math.MaxUint32},
	} {
		if got := BudgetUs(c.wait, c.armed); got != c.want {
			t.Errorf("BudgetUs(%v, %v) = %d, want %d", c.wait, c.armed, got, c.want)
		}
	}
}

func TestFrameReplyRoundTrip(t *testing.T) {
	r := FrameReply{
		Point:    geom.GridPoint{I: -5, J: 1 << 20},
		ReqID:    42,
		QueueMs:  3.5,
		RenderMs: 12.25,
		EncodeMs: 9,
		HopMs:    1.75,
		Kind:     FrameDelta,
		Rung:     RungStale,
		Origin:   OriginLocal,
		Ref:      geom.GridPoint{I: -6, J: 1<<20 - 1},
		Data:     []byte{9, 8, 7},
	}
	got, err := DecodeFrameReply(EncodeFrameReply(r))
	if err != nil {
		t.Fatal(err)
	}
	if got.Point != r.Point || got.ReqID != r.ReqID ||
		got.QueueMs != r.QueueMs || got.RenderMs != r.RenderMs || got.EncodeMs != r.EncodeMs ||
		got.HopMs != r.HopMs ||
		got.Kind != r.Kind || got.Rung != r.Rung || got.Origin != r.Origin || got.Ref != r.Ref ||
		!bytes.Equal(got.Data, r.Data) {
		t.Fatalf("got %+v want %+v", got, r)
	}
}

func TestFrameReplyRejectsUnknownKind(t *testing.T) {
	// The frame-kind byte is validated before the payload is touched, so
	// a frame coded in a format this client cannot reconstruct fails at
	// the transport layer, not inside the codec.
	full := EncodeFrameReply(FrameReply{ReqID: 1, Data: []byte("frame")})
	for _, kind := range []byte{byte(FrameDelta) + 1, 0x7F, 0xFF} {
		forged := append([]byte(nil), full...)
		forged[44] = kind
		if _, err := DecodeFrameReply(forged); err == nil {
			t.Fatalf("unknown frame kind %d accepted", kind)
		}
	}
}

func TestFrameReplyRejectsUnknownRung(t *testing.T) {
	// Same pre-payload guard for the degrade-rung byte: a server speaking
	// a newer quality ladder must fail loudly at the transport layer.
	full := EncodeFrameReply(FrameReply{ReqID: 1, Data: []byte("frame")})
	for _, rung := range []byte{byte(RungStale) + 1, 0x7F, 0xFF} {
		forged := append([]byte(nil), full...)
		forged[45] = rung
		if _, err := DecodeFrameReply(forged); err == nil {
			t.Fatalf("unknown degrade rung %d accepted", rung)
		}
	}
	// Every defined rung round-trips.
	for _, rung := range []DegradeRung{RungExact, RungStale} {
		got, err := DecodeFrameReply(EncodeFrameReply(FrameReply{Rung: rung}))
		if err != nil || got.Rung != rung {
			t.Fatalf("rung %d: got %d, err %v", rung, got.Rung, err)
		}
	}
}

func TestFrameReplyRejectsUnknownOrigin(t *testing.T) {
	// Same pre-payload guard for the frame-origin byte: the server is one
	// node and writes only OriginLocal, so every other value (1 and 2 were
	// the removed cluster's peer and failover origins) fails loudly at the
	// transport layer.
	full := EncodeFrameReply(FrameReply{ReqID: 1, Data: []byte("frame")})
	for _, origin := range []byte{1, 2, 0x7F, 0xFF} {
		forged := append([]byte(nil), full...)
		forged[46] = origin
		if _, err := DecodeFrameReply(forged); err == nil {
			t.Fatalf("unknown frame origin %d accepted", origin)
		}
	}
	if got, err := DecodeFrameReply(full); err != nil || got.Origin != OriginLocal {
		t.Fatalf("origin %d: got %d, err %v", OriginLocal, got.Origin, err)
	}
}

func TestDialBounded(t *testing.T) {
	// Dial against a live listener succeeds well within the bound.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	conn, err := Dial(ln.Addr().String(), time.Second)
	if err != nil {
		t.Fatal(err)
	}
	conn.Close()

	// Dial against a dead address must return (not hang) within the
	// configured timeout plus slack — a client's dial sits behind this
	// call.
	dead, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	deadAddr := dead.Addr().String()
	dead.Close()
	start := time.Now()
	if conn, err := Dial(deadAddr, 200*time.Millisecond); err == nil {
		conn.Close()
		t.Skip("closed port still accepting (port reused); cannot assert timeout")
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("bounded dial took %v", elapsed)
	}
}

func TestFrameReplyRejectsTruncatedHeader(t *testing.T) {
	full := EncodeFrameReply(FrameReply{ReqID: 1, Data: []byte("frame")})
	for n := 0; n < frameReplyHdrLen; n++ {
		if _, err := DecodeFrameReply(full[:n]); err == nil {
			t.Fatalf("truncated reply header (%d of %d bytes) accepted", n, frameReplyHdrLen)
		}
	}
	// A header with no data is a valid (empty) frame.
	got, err := DecodeFrameReply(full[:frameReplyHdrLen])
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Data) != 0 {
		t.Fatalf("expected empty data, got %d bytes", len(got.Data))
	}
}

func TestFrameCodecAllocationFree(t *testing.T) {
	// The frame hot path budgets one buffer allocation per encode and zero
	// per decode (Data aliases the input).
	req := FrameRequest{Player: 2, Point: geom.GridPoint{I: 4, J: 5}, ReqID: 9, BudgetUs: 16700}
	if allocs := testing.AllocsPerRun(100, func() {
		EncodeFrameRequest(req)
	}); allocs > 1 {
		t.Errorf("EncodeFrameRequest allocates %.0f times per op, budget 1", allocs)
	}
	reqBuf := EncodeFrameRequest(req)
	if allocs := testing.AllocsPerRun(100, func() {
		if _, err := DecodeFrameRequest(reqBuf); err != nil {
			t.Fatal(err)
		}
	}); allocs > 0 {
		t.Errorf("DecodeFrameRequest allocates %.0f times per op, budget 0", allocs)
	}
	reply := FrameReply{Point: geom.GridPoint{I: 4, J: 5}, ReqID: 9, Data: make([]byte, 4096)}
	if allocs := testing.AllocsPerRun(100, func() {
		EncodeFrameReply(reply)
	}); allocs > 1 {
		t.Errorf("EncodeFrameReply allocates %.0f times per op, budget 1", allocs)
	}
	replyBuf := EncodeFrameReply(reply)
	if allocs := testing.AllocsPerRun(100, func() {
		if _, err := DecodeFrameReply(replyBuf); err != nil {
			t.Fatal(err)
		}
	}); allocs > 0 {
		t.Errorf("DecodeFrameReply allocates %.0f times per op, budget 0", allocs)
	}
}

func TestConnOverTCP(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()

	done := make(chan error, 1)
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			done <- err
			return
		}
		defer conn.Close()
		c := NewConn(conn)
		m, err := c.Recv()
		if err != nil {
			done <- err
			return
		}
		req, err := DecodeFrameRequest(m.Payload)
		if err != nil {
			done <- err
			return
		}
		done <- c.Send(Message{
			Type:    MsgFrameReply,
			Payload: EncodeFrameReply(FrameReply{Point: req.Point, Data: []byte("frame")}),
		})
	}()

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	c := NewConn(conn)
	pt := geom.GridPoint{I: 10, J: 20}
	if err := c.Send(Message{Type: MsgFrameRequest, Payload: EncodeFrameRequest(FrameRequest{Player: 1, Point: pt})}); err != nil {
		t.Fatal(err)
	}
	m, err := c.Recv()
	if err != nil {
		t.Fatal(err)
	}
	reply, err := DecodeFrameReply(m.Payload)
	if err != nil {
		t.Fatal(err)
	}
	if reply.Point != pt || string(reply.Data) != "frame" {
		t.Fatalf("reply %+v", reply)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

func TestConnStickyError(t *testing.T) {
	var buf bytes.Buffer
	c := NewConn(&buf)
	if _, err := c.Recv(); err == nil {
		t.Fatal("empty stream should error")
	}
	if err := c.Send(Message{Type: MsgBye}); err == nil {
		t.Fatal("error should be sticky")
	}
}

// FuzzWireDecoders feeds arbitrary payloads to every TCP and datagram
// control decoder: malformed input is an error, never a panic, and
// whatever decodes survives the wire — re-encoded, it decodes again and
// re-encodes to the same bytes. The encoders write every field verbatim,
// so that fixed point is value equality, with NaN stage spans compared by
// bits. The one FrameRequest decoder is fed from both of its carriers: the
// TCP payload as is, and a DgramReq datagram past its type prefix. The
// seed corpus is the round-trip tests' messages, so the property runs
// inside go test.
func FuzzWireDecoders(f *testing.F) {
	f.Add(EncodeHello(Hello{Player: 3, Game: "viking"}))
	req := FrameRequest{Player: 1, Point: geom.GridPoint{I: -5, J: 11}, ReqID: 7, BudgetUs: 16700}
	f.Add(EncodeFrameRequest(req))
	f.Add(EncodeDgramReq(nil, req))
	f.Add(EncodeFrameReply(FrameReply{
		Point: geom.GridPoint{I: -5, J: 1 << 20}, ReqID: 42,
		QueueMs: 3.5, RenderMs: 12.25, EncodeMs: 9, HopMs: 1.75,
		Kind: FrameDelta, Rung: RungStale, Origin: OriginLocal,
		Ref: geom.GridPoint{I: -6, J: 1<<20 - 1}, Data: []byte{9, 8, 7},
	}))
	// Non-finite stage spans go through verbatim: the fixed point holds by bits.
	f.Add(EncodeFrameReply(FrameReply{ReqID: 1, QueueMs: math.NaN(), HopMs: math.Inf(-1)}))
	f.Add(EncodeNack(nil, Nack{StreamID: 1, FrameSeq: 1, Missing: []uint16{0, 1}}))
	f.Add(EncodeSub(nil, Sub{Player: 7, WantPush: true}))
	f.Add(EncodeFI(nil, fisync.State{Player: 2, Seq: 5, Pos: geom.V2(3, -4), Heading: 1}))
	f.Add(EncodeFIReply(nil, make([]byte, fisync.WireSize)))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, b []byte) {
		fuzzRoundTrip(t, "Hello", b, DecodeHello, EncodeHello)
		fuzzRoundTrip(t, "FrameRequest", b, DecodeFrameRequest, EncodeFrameRequest)
		if DgramType(b) == DgramReq {
			fuzzRoundTrip(t, "DgramReq body", b[2:], DecodeFrameRequest, EncodeFrameRequest)
		}
		fuzzRoundTrip(t, "FrameReply", b, DecodeFrameReply, EncodeFrameReply)
		fuzzRoundTrip(t, "Nack", b, DecodeNack, func(n Nack) []byte { return EncodeNack(nil, n) })
		fuzzRoundTrip(t, "Sub", b, DecodeSub, func(s Sub) []byte { return EncodeSub(nil, s) })
		fuzzRoundTrip(t, "FI", b, DecodeFI, func(s fisync.State) []byte { return EncodeFI(nil, s) })
		fuzzRoundTrip(t, "FIReply", b, DecodeFIReply, func(s []byte) []byte { return EncodeFIReply(nil, s) })
	})
}

// fuzzRoundTrip is FuzzWireDecoders' property for one decoder/encoder pair.
func fuzzRoundTrip[T any](t *testing.T, name string, b []byte, dec func([]byte) (T, error), enc func(T) []byte) {
	v, err := dec(b)
	if err != nil {
		return
	}
	wire := enc(v)
	v2, err := dec(wire)
	if err != nil {
		t.Fatalf("%s: %+v re-encoded to %x, which does not decode: %v", name, v, wire, err)
	}
	if again := enc(v2); !bytes.Equal(again, wire) {
		t.Fatalf("%s: %+v decoded back as %+v (wire %x vs %x)", name, v, v2, wire, again)
	}
}

// Package transport is the deployable network layer of Coterie: a
// length-prefixed binary protocol over TCP for far-BE frame prefetching
// (the paper serves frames over TCP, §5.1), the client half of its exchange
// (Client), and the datagram frame path. The simulated testbed (internal/netsim) models the
// medium for deterministic experiments; this package runs the same request
// flow over real sockets for cmd/coterie-server and cmd/coterie-client.
package transport

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"time"

	"coterie/internal/geom"
	"coterie/internal/obs"
)

// DefaultDialTimeout bounds connection establishment when the caller does
// not choose a timeout. An unreachable host must fail in seconds — a
// frame pipeline stalled on the kernel's minutes-long connect timeout is
// indistinguishable from a hang.
const DefaultDialTimeout = 3 * time.Second

// Dial opens a TCP connection with a bounded connect timeout (<= 0 means
// DefaultDialTimeout). Every dial in the system goes through here so no
// dead peer or mistyped address can stall a caller for the kernel
// default.
func Dial(addr string, timeout time.Duration) (net.Conn, error) {
	if timeout <= 0 {
		timeout = DefaultDialTimeout
	}
	return net.DialTimeout("tcp", addr, timeout)
}

// MsgType identifies a protocol message.
type MsgType uint8

const (
	// MsgHello opens a session: client id and game name.
	MsgHello MsgType = iota + 1
	// MsgFrameRequest asks for the far-BE frame of a grid point.
	MsgFrameRequest
	// MsgFrameReply carries an encoded far-BE frame.
	MsgFrameReply
	// MsgFISync is retired: FI sync runs over UDP only (Server.ServeFIUDP)
	// and a session that sends it is closed. The wire number stays
	// reserved so no later message type renumbers.
	MsgFISync
	// MsgError carries a server-side error string.
	MsgError
	// MsgBye closes the session.
	MsgBye
	// MsgEvictNotice is retired: both ends of a session hold delta
	// references by one rule (HeldRefs), so no eviction is reported, and a
	// session that sends it is closed. The wire number stays reserved.
	MsgEvictNotice
	// MsgPeerFrameRequest is a node-to-node frame fetch inside a cluster:
	// a non-owner node proxies a client's request to the grid point's
	// rendezvous owner. The payload is a FrameRequest carrying the
	// remaining budget, so the deadline propagates across the hop without
	// either node reading the other's clock.
	MsgPeerFrameRequest
	// MsgPeerFrameReply answers a peer fetch with a FrameReply (always
	// intra-coded — delta references are per client session and do not
	// cross nodes), carrying the owner's stage timings end-to-end.
	MsgPeerFrameReply
)

// maxMsgType is the highest known message type; ReadMessage and the
// metrics tables reject/ignore anything past it.
const maxMsgType = MsgPeerFrameReply

// MaxPayload bounds message payloads (a 4K panoramic frame fits well
// within this).
const MaxPayload = 64 << 20

// Message is one framed protocol message.
type Message struct {
	Type    MsgType
	Payload []byte
}

// WriteMessage frames and writes a message: 1-byte type, 4-byte big-endian
// length, payload.
func WriteMessage(w io.Writer, m Message) error {
	if len(m.Payload) > MaxPayload {
		return fmt.Errorf("transport: payload %d exceeds limit", len(m.Payload))
	}
	var hdr [5]byte
	hdr[0] = byte(m.Type)
	binary.BigEndian.PutUint32(hdr[1:], uint32(len(m.Payload)))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.Write(m.Payload)
	return err
}

// ReadMessage reads one framed message. A header with an unknown type or
// an oversized length fails immediately — before any payload read — so a
// corrupt or hostile peer cannot make the reader block on garbage.
func ReadMessage(r io.Reader) (Message, error) {
	var hdr [5]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return Message{}, err
	}
	if t := MsgType(hdr[0]); t < MsgHello || t > maxMsgType {
		return Message{}, fmt.Errorf("transport: unknown message type %d", hdr[0])
	}
	n := binary.BigEndian.Uint32(hdr[1:])
	if n > MaxPayload {
		return Message{}, fmt.Errorf("transport: payload %d exceeds limit", n)
	}
	m := Message{Type: MsgType(hdr[0])}
	if n > 0 {
		m.Payload = make([]byte, n)
		if _, err := io.ReadFull(r, m.Payload); err != nil {
			return Message{}, err
		}
	}
	return m, nil
}

// Hello is the session-opening payload.
type Hello struct {
	Player uint8
	Game   string
}

// EncodeHello serialises a Hello.
func EncodeHello(h Hello) []byte {
	b := []byte{h.Player, byte(len(h.Game))}
	return append(b, h.Game...)
}

// DecodeHello parses a Hello payload.
func DecodeHello(b []byte) (Hello, error) {
	if len(b) < 2 {
		return Hello{}, errors.New("transport: short hello")
	}
	n := int(b[1])
	if len(b) < 2+n {
		return Hello{}, errors.New("transport: truncated hello")
	}
	return Hello{Player: b[0], Game: string(b[2 : 2+n])}, nil
}

// frameRequestLen and frameReplyHdrLen are the fixed wire sizes of the
// frame messages. Both are fixed-size headers so encoding stays one buffer
// allocation and decoding is bounds-checked up front.
const (
	frameRequestLen  = 1 + 4 + 4 + 4 + 4               // player, point, req id, budget µs
	frameReplyHdrLen = 4 + 4 + 4 + 8*4 + 1 + 1 + 1 + 8 // point, req id, 4 stage spans, kind, rung, origin, ref point
)

// FrameEncoding says how a FrameReply's Data payload is coded.
type FrameEncoding uint8

const (
	// FrameIntra is a self-contained frame: codec.Decode suffices.
	FrameIntra FrameEncoding = iota
	// FrameDelta is a residual against the reference grid point named in
	// FrameReply.Ref; the client reconstructs with codec.DeltaDecode and
	// its cached decode of that reference.
	FrameDelta
)

// DegradeRung tags which rung of the server's quality ladder produced a
// reply's frame. RungExact is the normal path; RungStale is served only
// when the request's deadline is at risk, and is bounded to SSIM ≥ 0.90
// against the exact render by the leaf's DistThresh calibration.
type DegradeRung uint8

const (
	// RungExact is the full-quality serve path (store hit or full render).
	RungExact DegradeRung = iota
	// RungStale is a cached frame of a nearby grid point within the
	// leaf's DistThresh, served in place of rendering the requested one.
	RungStale
)

// FrameOrigin tags which node produced a reply's frame bytes inside a
// cluster. Single-node servers always report OriginLocal; the other
// values let clients and QoE accounting see where cluster work landed.
type FrameOrigin uint8

const (
	// OriginLocal: the serving node owned the point (or runs standalone)
	// and served from its own store or renderer.
	OriginLocal FrameOrigin = iota
	// OriginPeer: the serving node proxied the request to the point's
	// rendezvous owner and relayed (and cached) the owner's frame.
	OriginPeer
	// OriginFailover: the point is owned by a peer, but the peer was down
	// or the hop did not fit the deadline, so the serving node re-rendered
	// locally (byte-identical output, at local render cost).
	OriginFailover
)

// FrameRequest asks for the encoded far-BE panorama of a grid point. It
// is the one frame request of every wire: a TCP client's MsgFrameRequest,
// a cluster node's MsgPeerFrameRequest, and the body of a DgramReq
// datagram.
type FrameRequest struct {
	Player uint8
	Point  geom.GridPoint
	// ReqID matches replies to requests (monotonic per connection).
	ReqID uint32
	// BudgetUs is how long the requester waits for the reply, in
	// microseconds (BudgetUs builds it); 0 means no deadline: the request
	// is never shed or degraded and sorts after all deadline traffic in
	// the render queue. The server's deadline is its own receive time plus
	// the budget, so no clock is ever compared across hosts.
	BudgetUs uint32
}

// BudgetUs converts how long a requester will wait for its reply into a
// FrameRequest's BudgetUs. A request with no deadline (armed false) carries
// 0. An armed wait that has already run out is 1 µs, not 0: the request is
// late, so the server must see it at risk, not deadline-less. Waits past
// MaxUint32 µs (about 71 minutes) saturate.
func BudgetUs(wait time.Duration, armed bool) uint32 {
	if !armed {
		return 0
	}
	return uint32(min(max(wait.Microseconds(), 1), math.MaxUint32))
}

// EncodeFrameRequest serialises a FrameRequest.
func EncodeFrameRequest(r FrameRequest) []byte {
	return appendFrameRequest(make([]byte, 0, frameRequestLen), r)
}

func appendFrameRequest(dst []byte, r FrameRequest) []byte {
	dst = append(dst, r.Player)
	dst = binary.BigEndian.AppendUint32(dst, uint32(int32(r.Point.I)))
	dst = binary.BigEndian.AppendUint32(dst, uint32(int32(r.Point.J)))
	dst = binary.BigEndian.AppendUint32(dst, r.ReqID)
	return binary.BigEndian.AppendUint32(dst, r.BudgetUs)
}

// DecodeFrameRequest parses a FrameRequest payload.
func DecodeFrameRequest(b []byte) (FrameRequest, error) {
	if len(b) != frameRequestLen {
		return FrameRequest{}, fmt.Errorf("transport: frame request length %d", len(b))
	}
	return FrameRequest{
		Player: b[0],
		Point: geom.GridPoint{
			I: int(int32(binary.BigEndian.Uint32(b[1:5]))),
			J: int(int32(binary.BigEndian.Uint32(b[5:9]))),
		},
		ReqID:    binary.BigEndian.Uint32(b[9:13]),
		BudgetUs: binary.BigEndian.Uint32(b[13:17]),
	}, nil
}

// FrameReply carries the frame for a grid point plus how the server-side
// span decomposes into queue wait, singleflight render, and encode (server
// durations; no timestamps cross the wire). The client derives network
// transit as its measured RTT minus the server-side stages.
type FrameReply struct {
	Point geom.GridPoint
	// ReqID echoes the request's id.
	ReqID uint32
	// QueueMs is the wait before stage work began: connection queueing
	// plus singleflight waiting on another request's render of the same
	// point. RenderMs and EncodeMs are the render/encode spans, zero when
	// the frame store already held the frame.
	QueueMs  float64
	RenderMs float64
	EncodeMs float64
	// HopMs is the cluster proxy overhead for peer-origin frames: the
	// proxying node's wall time around its peer fetch (dial/pool wait plus
	// hop network transit) minus the owner's own stages, which are echoed
	// in QueueMs/RenderMs/EncodeMs. Zero for locally served frames, so the
	// client-side identity Net+Hop+Queue+Render+Encode = RTT holds on
	// every origin.
	HopMs float64
	// Kind says how Data is coded (intra or delta); Ref names the delta's
	// reference grid point and is meaningful only when Kind is FrameDelta.
	Kind FrameEncoding
	// Rung tags which rung of the quality-degrade ladder served the
	// frame, so clients and QoE accounting see deadline-driven
	// degradation explicitly rather than inferring it from latency.
	Rung DegradeRung
	// Origin tags which node produced the bytes (local, peer fetch, or
	// failover re-render) so cluster serving is visible end-to-end.
	Origin FrameOrigin
	Ref    geom.GridPoint
	Data   []byte
}

// EncodeFrameReply serialises a FrameReply (one buffer allocation; the
// trace context rides in the fixed header before the frame bytes).
func EncodeFrameReply(r FrameReply) []byte {
	b := make([]byte, frameReplyHdrLen, frameReplyHdrLen+len(r.Data))
	binary.BigEndian.PutUint32(b[0:4], uint32(int32(r.Point.I)))
	binary.BigEndian.PutUint32(b[4:8], uint32(int32(r.Point.J)))
	binary.BigEndian.PutUint32(b[8:12], r.ReqID)
	binary.BigEndian.PutUint64(b[12:20], math.Float64bits(r.QueueMs))
	binary.BigEndian.PutUint64(b[20:28], math.Float64bits(r.RenderMs))
	binary.BigEndian.PutUint64(b[28:36], math.Float64bits(r.EncodeMs))
	binary.BigEndian.PutUint64(b[36:44], math.Float64bits(r.HopMs))
	b[44] = byte(r.Kind)
	b[45] = byte(r.Rung)
	b[46] = byte(r.Origin)
	binary.BigEndian.PutUint32(b[47:51], uint32(int32(r.Ref.I)))
	binary.BigEndian.PutUint32(b[51:55], uint32(int32(r.Ref.J)))
	return append(b, r.Data...)
}

// DecodeFrameReply parses a FrameReply payload. The Data slice aliases b.
// An unknown frame-kind or degrade-rung byte is rejected before the
// payload is touched (mirroring ReadMessage's unknown-type guard): a
// peer speaking a newer frame encoding must fail loudly, not hand
// garbage to the codec.
func DecodeFrameReply(b []byte) (FrameReply, error) {
	if len(b) < frameReplyHdrLen {
		return FrameReply{}, errors.New("transport: short frame reply")
	}
	if k := FrameEncoding(b[44]); k > FrameDelta {
		return FrameReply{}, fmt.Errorf("transport: unknown frame kind %d", b[44])
	}
	if g := DegradeRung(b[45]); g > RungStale {
		return FrameReply{}, fmt.Errorf("transport: unknown degrade rung %d", b[45])
	}
	if o := FrameOrigin(b[46]); o > OriginFailover {
		return FrameReply{}, fmt.Errorf("transport: unknown frame origin %d", b[46])
	}
	return FrameReply{
		Point: geom.GridPoint{
			I: int(int32(binary.BigEndian.Uint32(b[0:4]))),
			J: int(int32(binary.BigEndian.Uint32(b[4:8]))),
		},
		ReqID:    binary.BigEndian.Uint32(b[8:12]),
		QueueMs:  math.Float64frombits(binary.BigEndian.Uint64(b[12:20])),
		RenderMs: math.Float64frombits(binary.BigEndian.Uint64(b[20:28])),
		EncodeMs: math.Float64frombits(binary.BigEndian.Uint64(b[28:36])),
		HopMs:    math.Float64frombits(binary.BigEndian.Uint64(b[36:44])),
		Kind:     FrameEncoding(b[44]),
		Rung:     DegradeRung(b[45]),
		Origin:   FrameOrigin(b[46]),
		Ref: geom.GridPoint{
			I: int(int32(binary.BigEndian.Uint32(b[47:51]))),
			J: int(int32(binary.BigEndian.Uint32(b[51:55]))),
		},
		Data: b[frameReplyHdrLen:],
	}, nil
}

// msgName returns the metric label of a message type.
func msgName(t MsgType) string {
	switch t {
	case MsgHello:
		return "hello"
	case MsgFrameRequest:
		return "frame_request"
	case MsgFrameReply:
		return "frame_reply"
	case MsgFISync:
		return "fi_sync"
	case MsgError:
		return "error"
	case MsgBye:
		return "bye"
	case MsgEvictNotice:
		return "evict_notice"
	case MsgPeerFrameRequest:
		return "peer_frame_request"
	case MsgPeerFrameReply:
		return "peer_frame_reply"
	default:
		return "unknown"
	}
}

// frameOverhead is the wire framing cost accounted per message: 1 type
// byte plus the 4-byte length prefix.
const frameOverhead = 5

// Metrics holds per-message-type transfer instruments for one direction
// pair, resolved once so the per-message cost is two atomic adds. A nil
// *Metrics disables accounting.
type Metrics struct {
	sentCount [maxMsgType + 1]*obs.Counter
	sentBytes [maxMsgType + 1]*obs.Counter
	recvCount [maxMsgType + 1]*obs.Counter
	recvBytes [maxMsgType + 1]*obs.Counter
}

// NewMetrics resolves per-message-type counters under
// "<prefix>.sent.<type>.count|bytes" and the recv equivalents. Byte
// counts include the 5-byte frame header. Returns nil (disabled) for a
// nil registry.
func NewMetrics(r *obs.Registry, prefix string) *Metrics {
	if r == nil {
		return nil
	}
	m := &Metrics{}
	for t := MsgHello; t <= maxMsgType; t++ {
		n := msgName(t)
		m.sentCount[t] = r.Counter(prefix + ".sent." + n + ".count")
		m.sentBytes[t] = r.Counter(prefix + ".sent." + n + ".bytes")
		m.recvCount[t] = r.Counter(prefix + ".recv." + n + ".count")
		m.recvBytes[t] = r.Counter(prefix + ".recv." + n + ".bytes")
	}
	return m
}

func (m *Metrics) sent(msg Message) {
	if m == nil || msg.Type < MsgHello || msg.Type > maxMsgType {
		return
	}
	m.sentCount[msg.Type].Inc()
	m.sentBytes[msg.Type].Add(int64(len(msg.Payload) + frameOverhead))
}

func (m *Metrics) received(msg Message) {
	if m == nil || msg.Type < MsgHello || msg.Type > maxMsgType {
		return
	}
	m.recvCount[msg.Type].Inc()
	m.recvBytes[msg.Type].Add(int64(len(msg.Payload) + frameOverhead))
}

// Conn wraps a stream with buffered message IO.
type Conn struct {
	rw  io.ReadWriter
	br  *bufio.Reader
	bw  *bufio.Writer
	err error
	m   *Metrics
}

// Instrument attaches per-message-type metrics to the connection (nil
// detaches). Call before concurrent use.
func (c *Conn) Instrument(m *Metrics) { c.m = m }

// NewConn wraps a stream (typically a net.Conn).
func NewConn(rw io.ReadWriter) *Conn {
	return &Conn{rw: rw, br: bufio.NewReaderSize(rw, 1<<16), bw: bufio.NewWriterSize(rw, 1<<16)}
}

// Send writes and flushes one message.
func (c *Conn) Send(m Message) error {
	if c.err != nil {
		return c.err
	}
	if err := WriteMessage(c.bw, m); err != nil {
		c.err = err
		return err
	}
	if err := c.bw.Flush(); err != nil {
		c.err = err
		return err
	}
	c.m.sent(m)
	return nil
}

// Recv reads one message.
func (c *Conn) Recv() (Message, error) {
	if c.err != nil {
		return Message{}, c.err
	}
	m, err := ReadMessage(c.br)
	if err != nil {
		c.err = err
		return m, err
	}
	c.m.received(m)
	return m, nil
}

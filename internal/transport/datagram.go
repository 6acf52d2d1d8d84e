package transport

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"

	"coterie/internal/fisync"
	"coterie/internal/geom"
	"coterie/internal/lru"
	"coterie/internal/obs"
)

// The datagram frame path: encoded far-BE frames sliced into MTU-sized
// UDP datagrams with one XOR-parity datagram per k-chunk FEC group, so a
// single loss inside a group recovers without a round trip, and a
// NACK-based retransmit message for the losses parity cannot cover. The
// same socket carries FI sync. Every datagram in either direction is typed:
// the magic byte, then a type byte (DgramType), then that type's body.
//
// Header layout of a chunk or parity datagram (dgramHdrLen bytes):
//
//	[0]     magic (DgramMagic)
//	[1]     type  (DgramChunk | DgramParity)
//	[2]     flags (DgramFlagPushed | DgramFlagRetransmit)
//	[3]     FEC group size k (0 = no parity for this frame)
//	[4:8]   stream id   — one logical stream per session
//	[8:12]  frame seq   — monotonic per stream
//	[12:14] chunk index — data chunk position; FEC group index for parity
//	[14:16] chunk count — data chunks in the frame
//	[16:20] grid point I (int32)
//	[20:24] grid point J (int32)
//	[24:28] frame length in bytes
//	[28:32] CRC-32 (IEEE) of the whole encoded frame
//
// Every chunk repeats the full header: any single datagram is enough to
// learn the frame's identity, size and checksum, so reassembly needs no
// out-of-band setup and tolerates arbitrary loss of its siblings.

// DgramMagic is the first byte of every datagram.
const DgramMagic = 0xC7

// Datagram types (second byte).
const (
	// DgramSub subscribes the sender's address: the server answers its FI
	// uploads and frame requests, and (with DgramFlagWantPush) may push
	// predicted frames unsolicited.
	DgramSub = 0x01
	// DgramReq asks for one grid point's frame over UDP: a FrameRequest
	// body, the budget included.
	DgramReq = 0x02
	// DgramChunk carries one slice of an encoded frame.
	DgramChunk = 0x03
	// DgramParity carries the XOR of one FEC group's chunk payloads.
	DgramParity = 0x04
	// DgramNack lists chunk indices the receiver is missing.
	DgramNack = 0x05
	// DgramFIReply wraps a concatenation of fisync states: the other
	// players' latest states, the answer to a DgramFI.
	DgramFIReply = 0x06
	// DgramFI uploads one player's fisync state.
	DgramFI = 0x07
)

// Chunk/parity flags.
const (
	// DgramFlagPushed marks an unsolicited server push.
	DgramFlagPushed = 1 << 0
	// DgramFlagRetransmit marks a NACK-triggered resend.
	DgramFlagRetransmit = 1 << 1
)

// DgramFlagWantPush, on a DgramSub, opts the subscriber into
// trajectory-driven push.
const DgramFlagWantPush = 1 << 0

const (
	// MaxDatagram is the largest frame-path datagram ever emitted: safely
	// under the common 1500-byte ethernet MTU so no IP fragmentation.
	MaxDatagram = 1400
	// dgramHdrLen is the chunk/parity header size.
	dgramHdrLen = 32
	// ChunkPayload is the data bytes per chunk; every chunk except a
	// frame's last carries exactly this many, which is what lets parity
	// recovery derive the missing chunk's length from its index.
	ChunkPayload = MaxDatagram - dgramHdrLen
	// MaxFrameChunks bounds the chunk count a datagram may claim; with
	// ChunkPayload this caps a reassembled frame at ~22 MB, far above any
	// encoded panorama but small enough that a forged count cannot
	// reserve unbounded memory.
	MaxFrameChunks = 16384
	// MaxNackChunks bounds the missing-index list of one NACK.
	MaxNackChunks = 64
)

// DefaultFECGroup is the default k: one parity datagram per 8 chunks.
const DefaultFECGroup = 8

// FrameMeta identifies a frame on the datagram path.
type FrameMeta struct {
	StreamID uint32
	FrameSeq uint32
	Point    geom.GridPoint
	Flags    byte
}

// chunkCount returns the number of data chunks an n-byte frame slices
// into.
func chunkCount(n int) int {
	return (n + ChunkPayload - 1) / ChunkPayload
}

// chunkLen returns the payload length of chunk idx of an n-byte frame.
func chunkLen(n, cnt, idx int) int {
	if idx == cnt-1 {
		return n - (cnt-1)*ChunkPayload
	}
	return ChunkPayload
}

// putChunkHeader writes the shared chunk/parity header.
func putChunkHeader(dst []byte, typ, flags byte, m FrameMeta, idx, cnt uint16, total int, crc uint32, fecK int) {
	dst[0] = DgramMagic
	dst[1] = typ
	dst[2] = flags
	dst[3] = byte(fecK)
	binary.BigEndian.PutUint32(dst[4:], m.StreamID)
	binary.BigEndian.PutUint32(dst[8:], m.FrameSeq)
	binary.BigEndian.PutUint16(dst[12:], idx)
	binary.BigEndian.PutUint16(dst[14:], cnt)
	binary.BigEndian.PutUint32(dst[16:], uint32(int32(m.Point.I)))
	binary.BigEndian.PutUint32(dst[20:], uint32(int32(m.Point.J)))
	binary.BigEndian.PutUint32(dst[24:], uint32(total))
	binary.BigEndian.PutUint32(dst[28:], crc)
}

// SliceFrame slices an encoded frame into chunk datagrams plus one XOR
// parity datagram per fecK-chunk group (fecK <= 0 disables FEC), appending
// to dst and returning it. Every returned slice is freshly allocated; the
// caller may hand them to a socket or a simulator without copying. Empty
// frames are not sliceable (the frame path never carries them).
func SliceFrame(dst [][]byte, m FrameMeta, data []byte, fecK int) [][]byte {
	if len(data) == 0 {
		return dst
	}
	if fecK < 0 || fecK > 255 {
		fecK = 0
	}
	cnt := chunkCount(len(data))
	crc := crc32.ChecksumIEEE(data)
	var parity []byte
	var parityLen int
	group := 0
	for idx := 0; idx < cnt; idx++ {
		payload := data[idx*ChunkPayload : idx*ChunkPayload+chunkLen(len(data), cnt, idx)]
		d := make([]byte, dgramHdrLen+len(payload))
		putChunkHeader(d, DgramChunk, m.Flags, m, uint16(idx), uint16(cnt), len(data), crc, fecK)
		copy(d[dgramHdrLen:], payload)
		dst = append(dst, d)
		if fecK > 0 {
			if parity == nil {
				parity = make([]byte, ChunkPayload)
				parityLen = 0
			}
			for i, b := range payload {
				parity[i] ^= b
			}
			if len(payload) > parityLen {
				parityLen = len(payload)
			}
			if (idx+1)%fecK == 0 || idx == cnt-1 {
				p := make([]byte, dgramHdrLen+parityLen)
				putChunkHeader(p, DgramParity, m.Flags, m, uint16(group), uint16(cnt), len(data), crc, fecK)
				copy(p[dgramHdrLen:], parity[:parityLen])
				dst = append(dst, p)
				parity, group = nil, group+1
			}
		}
	}
	return dst
}

// SliceChunk builds the single chunk datagram for one index of a frame —
// the NACK retransmit path, which resends exactly the missing chunks.
// Returns nil for an out-of-range index.
func SliceChunk(m FrameMeta, data []byte, idx int) []byte {
	cnt := chunkCount(len(data))
	if len(data) == 0 || idx < 0 || idx >= cnt {
		return nil
	}
	payload := data[idx*ChunkPayload : idx*ChunkPayload+chunkLen(len(data), cnt, idx)]
	d := make([]byte, dgramHdrLen+len(payload))
	putChunkHeader(d, DgramChunk, m.Flags|DgramFlagRetransmit, m, uint16(idx), uint16(cnt), len(data), crc32.ChecksumIEEE(data), 0)
	copy(d[dgramHdrLen:], payload)
	return d
}

// Nack asks the sender to retransmit the listed chunk indices of one
// frame.
type Nack struct {
	StreamID uint32
	FrameSeq uint32
	Missing  []uint16
}

// EncodeNack appends the wire form to dst.
func EncodeNack(dst []byte, n Nack) []byte {
	miss := n.Missing
	if len(miss) > MaxNackChunks {
		miss = miss[:MaxNackChunks]
	}
	dst = append(dst, DgramMagic, DgramNack)
	dst = binary.BigEndian.AppendUint32(dst, n.StreamID)
	dst = binary.BigEndian.AppendUint32(dst, n.FrameSeq)
	dst = binary.BigEndian.AppendUint16(dst, uint16(len(miss)))
	for _, idx := range miss {
		dst = binary.BigEndian.AppendUint16(dst, idx)
	}
	return dst
}

// DecodeNack parses a NACK datagram (without re-checking magic/type).
func DecodeNack(b []byte) (Nack, error) {
	if len(b) < 12 {
		return Nack{}, fmt.Errorf("transport: short NACK (%d bytes)", len(b))
	}
	n := Nack{
		StreamID: binary.BigEndian.Uint32(b[2:]),
		FrameSeq: binary.BigEndian.Uint32(b[6:]),
	}
	cnt := int(binary.BigEndian.Uint16(b[10:]))
	if cnt > MaxNackChunks {
		return Nack{}, fmt.Errorf("transport: NACK lists %d chunks (max %d)", cnt, MaxNackChunks)
	}
	if len(b) < 12+2*cnt {
		return Nack{}, fmt.Errorf("transport: NACK truncated (%d entries, %d bytes)", cnt, len(b))
	}
	for i := 0; i < cnt; i++ {
		n.Missing = append(n.Missing, binary.BigEndian.Uint16(b[12+2*i:]))
	}
	return n, nil
}

// Sub subscribes a client address to the datagram frame path.
type Sub struct {
	Player   uint8
	WantPush bool
}

// EncodeSub appends the wire form to dst.
func EncodeSub(dst []byte, s Sub) []byte {
	var flags byte
	if s.WantPush {
		flags |= DgramFlagWantPush
	}
	return append(dst, DgramMagic, DgramSub, s.Player, flags)
}

// DecodeSub parses a subscription datagram.
func DecodeSub(b []byte) (Sub, error) {
	if len(b) < 4 {
		return Sub{}, fmt.Errorf("transport: short Sub (%d bytes)", len(b))
	}
	return Sub{Player: b[2], WantPush: b[3]&DgramFlagWantPush != 0}, nil
}

// EncodeDgramReq appends a frame-request datagram to dst: the DgramReq
// type prefix, then the same FrameRequest body a TCP MsgFrameRequest
// carries. The receiver decodes it with DecodeFrameRequest(b[2:]).
func EncodeDgramReq(dst []byte, r FrameRequest) []byte {
	return appendFrameRequest(append(dst, DgramMagic, DgramReq), r)
}

// EncodeFI appends the FI upload of one player's state to dst.
func EncodeFI(dst []byte, st fisync.State) []byte {
	return st.Encode(append(dst, DgramMagic, DgramFI))
}

// DecodeFI parses an FI upload datagram.
func DecodeFI(b []byte) (fisync.State, error) {
	if len(b) < 2 {
		return fisync.State{}, fmt.Errorf("transport: short FI (%d bytes)", len(b))
	}
	st, _, err := fisync.DecodeState(b[2:])
	return st, err
}

// EncodeFIReply wraps already-encoded fisync states, the answer to an FI
// upload.
func EncodeFIReply(dst []byte, states []byte) []byte {
	return append(append(dst, DgramMagic, DgramFIReply), states...)
}

// DecodeFIReply returns the wrapped state bytes.
func DecodeFIReply(b []byte) ([]byte, error) {
	if len(b) < 2 {
		return nil, fmt.Errorf("transport: short FIReply (%d bytes)", len(b))
	}
	return b[2:], nil
}

// DgramType returns the type of a datagram, or 0 when it is too short or
// does not start with DgramMagic.
func DgramType(b []byte) byte {
	if len(b) < 2 || b[0] != DgramMagic {
		return 0
	}
	return b[1]
}

// ChunkInfo identifies the frame a chunk datagram belongs to, without
// admitting it to a reassembler (the NACK engine's peek).
type ChunkInfo struct {
	StreamID uint32
	FrameSeq uint32
}

// PeekChunk parses just the frame identity out of a chunk or parity
// datagram.
func PeekChunk(b []byte) (ChunkInfo, error) {
	h, err := parseChunkHeader(b)
	if err != nil {
		return ChunkInfo{}, err
	}
	return ChunkInfo{StreamID: h.meta.StreamID, FrameSeq: h.meta.FrameSeq}, nil
}

// ReassembledFrame is one frame delivered by the Reassembler.
type ReassembledFrame struct {
	StreamID uint32
	FrameSeq uint32
	Point    geom.GridPoint
	Flags    byte
	Data     []byte
}

// ReassemblerConfig has no fields: the Reassembler's bounds are the
// constants below. It stays because callers outside this module construct
// one with NewReassembler(ReassemblerConfig{}).
type ReassemblerConfig struct{}

const (
	// maxPartialFrames caps concurrent partial frames; beyond it the
	// oldest partial is abandoned (an overflow drop).
	maxPartialFrames = 16
	// maxFrameBytes caps one frame's claimed length; larger claims are
	// dropped as overflow.
	maxFrameBytes = 8 << 20
	// reorderWindow is how far behind a stream's newest delivered frame a
	// chunk may arrive before it is dropped as stale.
	reorderWindow = 16
)

// ReassemblerStats counts reassembly activity; all drop reasons are
// split so the path is debuggable from /metrics.
type ReassemblerStats struct {
	Delivered        int64 // frames completed and handed out
	Recovered        int64 // frames that needed a parity reconstruction
	DroppedMalformed int64 // unparseable or self-inconsistent datagrams
	DroppedStale     int64 // chunks for delivered or long-gone frames
	DroppedOverflow  int64 // partials abandoned to stay within caps
	DroppedDup       int64 // duplicate chunks
	Corrupt          int64 // completed frames failing the checksum
}

// frameKey identifies one frame across datagrams.
type frameKey struct {
	stream uint32
	seq    uint32
}

// partial is one frame mid-reassembly.
type partial struct {
	meta   FrameMeta
	total  int
	cnt    int
	crc    uint32
	fecK   int      // sender's FEC group size (0 = none seen yet)
	chunks [][]byte // by index; nil = missing
	have   int
	parity map[uint16][]byte // by FEC group index
	lastAt float64           // time of the last datagram or NACK, in s
	nacks  int               // NACKs the owner has sent for this frame (engine use)
}

// Reassembler rebuilds frames from chunk/parity datagrams. It is not
// safe for concurrent use; the owning receive loop drives it. Time is
// injected by the caller in seconds, so tests can drive stale/expiry
// behaviour with explicit times.
type Reassembler struct {
	frames  lru.Map[frameKey, *partial] // in arrival order of each frame's first datagram
	streams map[uint32]*streamState
	stats   ReassemblerStats
	obs     reasmObs
}

// streamState tracks per-stream delivery for the late/stale drop rules:
// chunks for an already-delivered frame are late, chunks further than the
// reorder window behind the newest delivery are stale.
type streamState struct {
	newest    uint32 // highest delivered frame seq
	delivered uint64 // bitmask over [newest-63, newest]
	any       bool
}

// reasmObs mirrors stats into a registry (nil-safe instruments).
type reasmObs struct {
	delivered, recovered *obs.Counter
	malformed, stale     *obs.Counter
	overflow, dup        *obs.Counter
	corrupt              *obs.Counter
	pending              *obs.Gauge
}

// NewReassembler creates a reassembler bounded by maxPartialFrames,
// maxFrameBytes and reorderWindow.
func NewReassembler(ReassemblerConfig) *Reassembler {
	return &Reassembler{streams: make(map[uint32]*streamState)}
}

// Instrument mirrors the reassembler's counters into a registry under
// the given prefix (e.g. "client.udp"). Instrument(nil) is a no-op.
func (r *Reassembler) Instrument(reg *obs.Registry, prefix string) {
	if reg == nil {
		return
	}
	r.obs = reasmObs{
		delivered: reg.Counter(prefix + ".frames_delivered"),
		recovered: reg.Counter(prefix + ".fec_recovered"),
		malformed: reg.Counter(prefix + ".dropped_malformed"),
		stale:     reg.Counter(prefix + ".dropped_stale"),
		overflow:  reg.Counter(prefix + ".dropped_overflow"),
		dup:       reg.Counter(prefix + ".dropped_dup"),
		corrupt:   reg.Counter(prefix + ".corrupt"),
		pending:   reg.Gauge(prefix + ".partial_frames"),
	}
}

// Stats returns a copy of the counters.
func (r *Reassembler) Stats() ReassemblerStats { return r.stats }

// Pending returns the number of partial frames held.
func (r *Reassembler) Pending() int { return r.frames.Len() }

// PendingBytes returns the chunk bytes currently buffered.
func (r *Reassembler) PendingBytes() int {
	total := 0
	r.frames.Each(func(_ frameKey, p *partial) {
		for _, c := range p.chunks {
			total += len(c)
		}
		for _, c := range p.parity {
			total += len(c)
		}
	})
	return total
}

// dgramHdr is a parsed chunk/parity header.
type dgramHdr struct {
	typ, flags byte
	fecK       int
	meta       FrameMeta
	idx, cnt   uint16
	total      int
	crc        uint32
}

// parseChunkHeader validates a chunk/parity datagram's fixed header.
func parseChunkHeader(b []byte) (dgramHdr, error) {
	if len(b) < dgramHdrLen {
		return dgramHdr{}, fmt.Errorf("transport: short chunk datagram (%d bytes)", len(b))
	}
	h := dgramHdr{
		typ:   b[1],
		flags: b[2],
		fecK:  int(b[3]),
		meta: FrameMeta{
			StreamID: binary.BigEndian.Uint32(b[4:]),
			FrameSeq: binary.BigEndian.Uint32(b[8:]),
			Point: geom.GridPoint{
				I: int(int32(binary.BigEndian.Uint32(b[16:]))),
				J: int(int32(binary.BigEndian.Uint32(b[20:]))),
			},
			Flags: b[2],
		},
		idx:   binary.BigEndian.Uint16(b[12:]),
		cnt:   binary.BigEndian.Uint16(b[14:]),
		total: int(binary.BigEndian.Uint32(b[24:])),
		crc:   binary.BigEndian.Uint32(b[28:]),
	}
	if h.cnt == 0 || int(h.cnt) > MaxFrameChunks {
		return dgramHdr{}, fmt.Errorf("transport: chunk count %d out of range", h.cnt)
	}
	if h.total <= 0 || chunkCount(h.total) != int(h.cnt) {
		return dgramHdr{}, fmt.Errorf("transport: frame length %d does not yield %d chunks", h.total, h.cnt)
	}
	return h, nil
}

// Offer feeds one received datagram (must be DgramChunk or DgramParity by
// DgramType) into reassembly at time nowSec (seconds). It returns the
// completed, checksum-verified frame when this datagram finished one,
// else nil.
func (r *Reassembler) Offer(b []byte, nowSec float64) *ReassembledFrame {
	h, err := parseChunkHeader(b)
	if err != nil {
		r.dropMalformed()
		return nil
	}
	key := frameKey{h.meta.StreamID, h.meta.FrameSeq}
	if st := r.streams[h.meta.StreamID]; st != nil && st.any {
		if seen, late := st.seen(h.meta.FrameSeq); seen || late {
			r.stats.DroppedStale++
			r.obs.stale.Inc()
			return nil
		}
	}
	if h.total > maxFrameBytes {
		r.stats.DroppedOverflow++
		r.obs.overflow.Inc()
		return nil
	}

	p, _ := r.frames.Peek(key)
	if p == nil {
		for r.frames.Len() >= maxPartialFrames {
			// Abandon the oldest partial to stay within the cap.
			r.frames.RemoveOldest()
			r.stats.DroppedOverflow++
			r.obs.overflow.Inc()
		}
		p = &partial{
			meta:   h.meta,
			total:  h.total,
			cnt:    int(h.cnt),
			crc:    h.crc,
			fecK:   h.fecK,
			chunks: make([][]byte, h.cnt),
			parity: make(map[uint16][]byte),
		}
		r.frames.Put(key, p)
		r.obs.pending.Set(int64(r.frames.Len()))
	} else if p.total != h.total || p.cnt != int(h.cnt) || p.crc != h.crc || p.meta.Point != h.meta.Point {
		// A datagram contradicting the partial it claims to extend: the
		// peer is confused or hostile either way; believe the first.
		r.dropMalformed()
		return nil
	}
	p.lastAt = nowSec
	// A push/retransmit flag anywhere on the frame sticks so the consumer
	// can classify it.
	p.meta.Flags |= h.flags
	// Retransmitted chunks carry no FEC group size; adopt it from the
	// first datagram that does.
	if p.fecK == 0 {
		p.fecK = h.fecK
	}

	payload := b[dgramHdrLen:]
	switch h.typ {
	case DgramChunk:
		if int(h.idx) >= p.cnt {
			r.dropMalformed()
			return nil
		}
		want := chunkLen(p.total, p.cnt, int(h.idx))
		if len(payload) < want {
			r.dropMalformed()
			return nil
		}
		if p.chunks[h.idx] != nil {
			r.stats.DroppedDup++
			r.obs.dup.Inc()
			return nil
		}
		p.chunks[h.idx] = append([]byte(nil), payload[:want]...)
		p.have++
	case DgramParity:
		if _, ok := p.parity[h.idx]; ok {
			r.stats.DroppedDup++
			r.obs.dup.Inc()
			return nil
		}
		// Keep at most a full chunk's worth: no data chunk is longer.
		if len(payload) > ChunkPayload {
			payload = payload[:ChunkPayload]
		}
		p.parity[h.idx] = append([]byte(nil), payload...)
	default:
		r.dropMalformed()
		return nil
	}
	r.recover(p)
	return r.tryComplete(key, p)
}

// recover reconstructs any FEC group with exactly one missing data chunk
// and its parity present: the missing payload is the XOR of the parity
// and the group's other chunks, truncated to the length its index
// implies (all chunks but a frame's last are exactly ChunkPayload).
func (r *Reassembler) recover(p *partial) {
	if len(p.parity) == 0 || p.have == p.cnt || p.fecK <= 0 {
		return
	}
	for g, par := range p.parity {
		lo := int(g) * p.fecK
		hi := lo + p.fecK
		if hi > p.cnt {
			hi = p.cnt
		}
		if lo >= p.cnt {
			continue
		}
		missing := -1
		for i := lo; i < hi; i++ {
			if p.chunks[i] == nil {
				if missing >= 0 {
					missing = -2
					break
				}
				missing = i
			}
		}
		if missing < 0 {
			continue
		}
		// A genuine parity is as long as its group's longest chunk, the
		// first; a shorter one (forged or truncated) cannot restore the
		// missing chunk nor absorb the XOR of the others.
		if chunkLen(p.total, p.cnt, lo) > len(par) {
			continue
		}
		want := chunkLen(p.total, p.cnt, missing)
		rec := make([]byte, len(par))
		copy(rec, par)
		for i := lo; i < hi; i++ {
			if i == missing {
				continue
			}
			for j, b := range p.chunks[i] {
				rec[j] ^= b
			}
		}
		p.chunks[missing] = rec[:want]
		p.have++
		r.stats.Recovered++
		r.obs.recovered.Inc()
	}
}

// tryComplete assembles and verifies a finished frame.
func (r *Reassembler) tryComplete(key frameKey, p *partial) *ReassembledFrame {
	if p.have < p.cnt {
		return nil
	}
	data := make([]byte, 0, p.total)
	for _, c := range p.chunks {
		data = append(data, c...)
	}
	r.remove(key)
	if len(data) != p.total || crc32.ChecksumIEEE(data) != p.crc {
		// Checksum or length mismatch: the frame is corrupt; drop it
		// without marking the seq delivered so a retransmit can rebuild
		// it from scratch.
		r.stats.Corrupt++
		r.obs.corrupt.Inc()
		return nil
	}
	r.markDelivered(p.meta.StreamID, p.meta.FrameSeq)
	r.stats.Delivered++
	r.obs.delivered.Inc()
	return &ReassembledFrame{
		StreamID: p.meta.StreamID,
		FrameSeq: p.meta.FrameSeq,
		Point:    p.meta.Point,
		Flags:    p.meta.Flags,
		Data:     data,
	}
}

// Missing lists the chunk indices still absent from a partial frame (nil
// when the frame is unknown). The slice is freshly allocated and capped
// at MaxNackChunks, matching what one NACK can carry.
func (r *Reassembler) Missing(streamID, frameSeq uint32) []uint16 {
	p, _ := r.frames.Peek(frameKey{streamID, frameSeq})
	if p == nil {
		return nil
	}
	var miss []uint16
	for i, c := range p.chunks {
		if c == nil {
			miss = append(miss, uint16(i))
			if len(miss) == MaxNackChunks {
				break
			}
		}
	}
	return miss
}

// PendingFrame describes one partial frame for the NACK/expiry engine.
type PendingFrame struct {
	StreamID uint32
	FrameSeq uint32
	Nacks    int
}

// Stale returns the partial frames whose last datagram or NACK came more
// than ageSec seconds before nowSec, oldest first — the candidates for a
// NACK or an abandon.
func (r *Reassembler) Stale(nowSec, ageSec float64) []PendingFrame {
	var out []PendingFrame
	r.frames.Each(func(key frameKey, p *partial) {
		if nowSec-p.lastAt < ageSec {
			return
		}
		out = append(out, PendingFrame{StreamID: key.stream, FrameSeq: key.seq, Nacks: p.nacks})
	})
	return out
}

// NoteNack records that the engine sent a NACK for a partial frame at
// nowSec and refreshes its activity time so the next sweep waits a full
// round trip.
func (r *Reassembler) NoteNack(streamID, frameSeq uint32, nowSec float64) {
	if p, _ := r.frames.Peek(frameKey{streamID, frameSeq}); p != nil {
		p.nacks++
		p.lastAt = nowSec
	}
}

// Abandon drops a partial frame and frees its buffer (an overflow-class
// drop: the engine gave up on it).
func (r *Reassembler) Abandon(streamID, frameSeq uint32) {
	if !r.remove(frameKey{streamID, frameSeq}) {
		return
	}
	r.stats.DroppedOverflow++
	r.obs.overflow.Inc()
}

// HasTail reports whether the partial frame holds its final chunk — the
// cue that the sender finished and anything missing was lost, so a NACK
// should fire now instead of waiting for the gap timer.
func (r *Reassembler) HasTail(streamID, frameSeq uint32) bool {
	p, _ := r.frames.Peek(frameKey{streamID, frameSeq})
	return p != nil && p.chunks[p.cnt-1] != nil
}

// remove deletes a partial without counting a drop (delivery or abandon
// bookkeeping happens at the caller); it reports whether key was held.
func (r *Reassembler) remove(key frameKey) bool {
	_, ok := r.frames.Remove(key)
	r.obs.pending.Set(int64(r.frames.Len()))
	return ok
}

func (r *Reassembler) dropMalformed() {
	r.stats.DroppedMalformed++
	r.obs.malformed.Inc()
}

// markDelivered updates the stream's delivery window.
func (r *Reassembler) markDelivered(stream, seq uint32) {
	st := r.streams[stream]
	if st == nil {
		st = &streamState{}
		r.streams[stream] = st
	}
	st.mark(seq)
}

// seen reports whether seq was already delivered (late duplicate) or
// fell behind the reorder window (stale).
func (st *streamState) seen(seq uint32) (delivered, stale bool) {
	if !st.any {
		return false, false
	}
	d := int64(int32(st.newest - seq)) // wraparound-safe distance
	if d < 0 {
		return false, false // ahead of anything delivered
	}
	if d > reorderWindow {
		return false, true
	}
	return st.delivered&(1<<uint(d)) != 0, false
}

// mark records a delivery at seq, sliding the window forward as needed.
func (st *streamState) mark(seq uint32) {
	if !st.any {
		st.any, st.newest, st.delivered = true, seq, 1
		return
	}
	d := int64(int32(seq - st.newest))
	if d > 0 {
		if d >= 64 {
			st.delivered = 0
		} else {
			st.delivered <<= uint(d)
		}
		st.newest = seq
		st.delivered |= 1
		return
	}
	if back := -d; back < 64 {
		st.delivered |= 1 << uint(back)
	}
}

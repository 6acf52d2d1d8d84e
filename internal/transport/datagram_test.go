package transport

import (
	"bytes"
	"hash/crc32"
	"math"
	"math/rand"
	"testing"

	"coterie/internal/fisync"
	"coterie/internal/geom"
)

func testFrame(rng *rand.Rand, n int) []byte {
	b := make([]byte, n)
	rng.Read(b)
	return b
}

func offerAll(t *testing.T, r *Reassembler, dgrams [][]byte) *ReassembledFrame {
	t.Helper()
	var got *ReassembledFrame
	for _, d := range dgrams {
		if f := r.Offer(d, 0); f != nil {
			if got != nil {
				t.Fatalf("frame delivered twice")
			}
			got = f
		}
	}
	return got
}

func TestSliceFrameRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{1, 100, ChunkPayload, ChunkPayload + 1, 3*ChunkPayload + 17, 10 * ChunkPayload} {
		meta := FrameMeta{StreamID: 7, FrameSeq: 42, Point: geom.GridPoint{I: 3, J: -9}, Flags: DgramFlagPushed}
		data := testFrame(rng, n)
		dgrams := SliceFrame(nil, meta, data, DefaultFECGroup)
		for _, d := range dgrams {
			if len(d) > MaxDatagram {
				t.Fatalf("n=%d: datagram of %d bytes exceeds MaxDatagram", n, len(d))
			}
			if typ := DgramType(d); typ != DgramChunk && typ != DgramParity {
				t.Fatalf("n=%d: DgramType = %d", n, typ)
			}
		}
		r := NewReassembler(ReassemblerConfig{})
		got := offerAll(t, r, dgrams)
		if got == nil {
			t.Fatalf("n=%d: frame not delivered", n)
		}
		if !bytes.Equal(got.Data, data) {
			t.Fatalf("n=%d: reassembled bytes differ", n)
		}
		if got.Point != meta.Point || got.StreamID != 7 || got.FrameSeq != 42 {
			t.Fatalf("n=%d: meta mismatch: %+v", n, got)
		}
		if got.Flags&DgramFlagPushed == 0 {
			t.Fatalf("n=%d: pushed flag lost", n)
		}
		if r.Pending() != 0 || r.PendingBytes() != 0 {
			t.Fatalf("n=%d: buffer not freed after delivery: %d frames, %d bytes", n, r.Pending(), r.PendingBytes())
		}
	}
}

// TestFECRecovery drops exactly one data chunk per FEC group; parity must
// recover every one without any retransmit.
func TestFECRecovery(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	data := testFrame(rng, 17*ChunkPayload+99) // 18 chunks, 3 groups at k=8
	meta := FrameMeta{StreamID: 1, FrameSeq: 1}
	dgrams := SliceFrame(nil, meta, data, DefaultFECGroup)
	// Drop the first chunk of each group (indices 0, 8, 16).
	var kept [][]byte
	for _, d := range dgrams {
		h, err := parseChunkHeader(d)
		if err != nil {
			t.Fatal(err)
		}
		if h.typ == DgramChunk && (h.idx == 0 || h.idx == 8 || h.idx == 16) {
			continue
		}
		kept = append(kept, d)
	}
	r := NewReassembler(ReassemblerConfig{})
	got := offerAll(t, r, kept)
	if got == nil {
		t.Fatalf("frame not delivered despite per-group parity")
	}
	if !bytes.Equal(got.Data, data) {
		t.Fatalf("recovered bytes differ")
	}
	if r.Stats().Recovered != 3 {
		t.Fatalf("Recovered = %d, want 3", r.Stats().Recovered)
	}
}

// TestNackRetransmitPath loses two chunks of one group (beyond parity),
// then replays them via SliceChunk as a sender answering a NACK would.
func TestNackRetransmitPath(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	data := testFrame(rng, 6*ChunkPayload+5)
	meta := FrameMeta{StreamID: 9, FrameSeq: 4}
	dgrams := SliceFrame(nil, meta, data, DefaultFECGroup)
	var kept [][]byte
	for _, d := range dgrams {
		h, _ := parseChunkHeader(d)
		if h.typ == DgramChunk && (h.idx == 2 || h.idx == 5) {
			continue
		}
		kept = append(kept, d)
	}
	r := NewReassembler(ReassemblerConfig{})
	if got := offerAll(t, r, kept); got != nil {
		t.Fatalf("frame delivered with two chunks missing from one group")
	}
	miss := r.Missing(9, 4)
	if len(miss) != 2 || miss[0] != 2 || miss[1] != 5 {
		t.Fatalf("Missing = %v, want [2 5]", miss)
	}
	if !r.HasTail(9, 4) {
		t.Fatalf("tail chunk present but HasTail = false")
	}
	// NACK wire round trip, then retransmit exactly the missing chunks.
	n, err := DecodeNack(EncodeNack(nil, Nack{StreamID: 9, FrameSeq: 4, Missing: miss}))
	if err != nil {
		t.Fatal(err)
	}
	var got *ReassembledFrame
	for _, idx := range n.Missing {
		d := SliceChunk(meta, data, int(idx))
		if d == nil {
			t.Fatalf("SliceChunk(%d) = nil", idx)
		}
		if f := r.Offer(d, 1); f != nil {
			got = f
		}
	}
	if got == nil || !bytes.Equal(got.Data, data) {
		t.Fatalf("retransmit did not complete the frame")
	}
	if got.Flags&DgramFlagRetransmit == 0 {
		t.Fatalf("retransmit flag lost")
	}
}

func TestReassemblerStaleAndDup(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	meta := FrameMeta{StreamID: 5, FrameSeq: 100}
	data := testFrame(rng, 2*ChunkPayload)
	dgrams := SliceFrame(nil, meta, data, 0)
	r := NewReassembler(ReassemblerConfig{})
	if got := offerAll(t, r, dgrams); got == nil {
		t.Fatalf("frame not delivered")
	}
	// Replaying a delivered frame's chunk is a stale drop, not a rebuild.
	if f := r.Offer(dgrams[0], 2); f != nil {
		t.Fatalf("stale chunk delivered a frame")
	}
	if r.Stats().DroppedStale == 0 {
		t.Fatalf("stale replay not counted")
	}
	if r.Pending() != 0 {
		t.Fatalf("stale replay re-opened a partial")
	}
	// A frame far behind the reorder window is stale too.
	old := SliceFrame(nil, FrameMeta{StreamID: 5, FrameSeq: 10}, data, 0)
	if f := r.Offer(old[0], 3); f != nil || r.Pending() != 0 {
		t.Fatalf("far-stale seq accepted")
	}
	// Duplicate chunk within a live partial.
	next := SliceFrame(nil, FrameMeta{StreamID: 5, FrameSeq: 101}, data, 0)
	r.Offer(next[0], 4)
	r.Offer(next[0], 5)
	if r.Stats().DroppedDup == 0 {
		t.Fatalf("duplicate chunk not counted")
	}
}

func TestReassemblerCorruptFrameDropped(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	data := testFrame(rng, 3*ChunkPayload+7)
	meta := FrameMeta{StreamID: 2, FrameSeq: 9}
	dgrams := SliceFrame(nil, meta, data, 0)
	// Flip a payload byte in the middle chunk; the header CRC now
	// disagrees with the content.
	bad := append([]byte(nil), dgrams[1]...)
	bad[dgramHdrLen+10] ^= 0xFF
	dgrams[1] = bad
	r := NewReassembler(ReassemblerConfig{})
	if got := offerAll(t, r, dgrams); got != nil {
		t.Fatalf("corrupt frame delivered")
	}
	if r.Stats().Corrupt != 1 {
		t.Fatalf("Corrupt = %d, want 1", r.Stats().Corrupt)
	}
	if r.Pending() != 0 || r.PendingBytes() != 0 {
		t.Fatalf("corrupt frame's buffer not freed")
	}
	// The seq was not marked delivered: a full clean resend must succeed.
	if got := offerAll(t, r, SliceFrame(nil, meta, data, 0)); got == nil {
		t.Fatalf("clean resend after corrupt drop not delivered")
	}
}

func TestReassemblerBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	r := NewReassembler(ReassemblerConfig{})
	// Open 32 partials (first chunk only, 2-chunk frames); only 16 may live.
	for seq := uint32(0); seq < 32; seq++ {
		data := testFrame(rng, ChunkPayload+1)
		d := SliceFrame(nil, FrameMeta{StreamID: 3, FrameSeq: seq}, data, 0)
		r.Offer(d[0], float64(seq))
	}
	if r.Pending() != 16 {
		t.Fatalf("Pending = %d, want 16", r.Pending())
	}
	if r.Stats().DroppedOverflow != 16 {
		t.Fatalf("DroppedOverflow = %d, want 16", r.Stats().DroppedOverflow)
	}
	// A forged chunk count over the 8 MB frame-byte cap is rejected outright.
	big := make([]byte, dgramHdrLen+1)
	putChunkHeader(big, DgramChunk, 0, FrameMeta{StreamID: 4, FrameSeq: 1}, 0, uint16(chunkCount(9<<20)), 9<<20, 0, 0)
	before := r.Pending()
	if f := r.Offer(big, 99); f != nil || r.Pending() != before {
		t.Fatalf("oversized frame claim opened a partial")
	}
}

// TestReassemblerReorderWindowEdge: once frame 100 of a stream is
// delivered, a chunk of frame 84 (16 behind) still opens a partial and one
// of frame 83 (17 behind) is dropped as stale.
func TestReassemblerReorderWindowEdge(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	data := testFrame(rng, ChunkPayload+1)
	r := NewReassembler(ReassemblerConfig{})
	if got := offerAll(t, r, SliceFrame(nil, FrameMeta{StreamID: 6, FrameSeq: 100}, data, 0)); got == nil {
		t.Fatal("newest frame not delivered")
	}
	inside := SliceFrame(nil, FrameMeta{StreamID: 6, FrameSeq: 84}, data, 0)
	if f := r.Offer(inside[0], 1); f != nil || r.Pending() != 1 || r.Stats().DroppedStale != 0 {
		t.Fatalf("frame 16 behind the newest: pending %d, stale drops %d; want 1, 0",
			r.Pending(), r.Stats().DroppedStale)
	}
	outside := SliceFrame(nil, FrameMeta{StreamID: 6, FrameSeq: 83}, data, 0)
	if f := r.Offer(outside[0], 2); f != nil || r.Pending() != 1 || r.Stats().DroppedStale != 1 {
		t.Fatalf("frame 17 behind the newest: pending %d, stale drops %d; want 1, 1",
			r.Pending(), r.Stats().DroppedStale)
	}
}

func TestReassemblerStaleSweepAndAbandon(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	data := testFrame(rng, 2*ChunkPayload)
	d := SliceFrame(nil, FrameMeta{StreamID: 8, FrameSeq: 1}, data, 0)
	r := NewReassembler(ReassemblerConfig{})
	r.Offer(d[0], 100)
	if got := r.Stale(104, 5); len(got) != 0 {
		t.Fatalf("frame stale before its age: %v", got)
	}
	got := r.Stale(106, 5)
	if len(got) != 1 || got[0].StreamID != 8 || got[0].FrameSeq != 1 {
		t.Fatalf("Stale = %v", got)
	}
	r.NoteNack(8, 1, 106)
	if got := r.Stale(110, 5); len(got) != 0 {
		t.Fatalf("NACK did not refresh activity")
	}
	if got := r.Stale(112, 5); len(got) != 1 || got[0].Nacks != 1 {
		t.Fatalf("nack count not tracked: %v", got)
	}
	r.Abandon(8, 1)
	if r.Pending() != 0 || r.PendingBytes() != 0 {
		t.Fatalf("abandon did not free the partial")
	}
}

func TestSubReqRoundTrip(t *testing.T) {
	s, err := DecodeSub(EncodeSub(nil, Sub{Player: 7, WantPush: true}))
	if err != nil || s.Player != 7 || !s.WantPush {
		t.Fatalf("Sub round trip: %+v, %v", s, err)
	}
	want := FrameRequest{Player: 3, Point: geom.GridPoint{I: -5, J: 11}, ReqID: 88, BudgetUs: 50000}
	b := EncodeDgramReq(nil, want)
	if DgramType(b) != DgramReq {
		t.Fatalf("DgramType = %d, want DgramReq", DgramType(b))
	}
	if q, err := DecodeFrameRequest(b[2:]); err != nil || q != want {
		t.Fatalf("DgramReq round trip: %+v, %v", q, err)
	}
}

// TestDgramReqIsFrameRequest: a frame-request datagram is exactly the
// DgramReq type prefix followed by the TCP request body, so the two wires
// carry one request with one codec.
func TestDgramReqIsFrameRequest(t *testing.T) {
	for _, r := range []FrameRequest{
		{},
		{Player: 3, Point: geom.GridPoint{I: -5, J: 11}, ReqID: 88, BudgetUs: 50000},
		{Player: 0xFF, Point: geom.GridPoint{I: 1 << 20, J: -(1 << 20)}, ReqID: math.MaxUint32, BudgetUs: math.MaxUint32},
	} {
		want := append([]byte{DgramMagic, DgramReq}, EncodeFrameRequest(r)...)
		if got := EncodeDgramReq(nil, r); !bytes.Equal(got, want) {
			t.Errorf("%+v: datagram %x, want %x", r, got, want)
		}
		// Appends, like every datagram encoder.
		if got := EncodeDgramReq([]byte{0xAA}, r); !bytes.Equal(got, append([]byte{0xAA}, want...)) {
			t.Errorf("%+v: EncodeDgramReq does not append to dst: %x", r, got)
		}
	}
}

// TestFIRoundTrip: an FI upload is a typed datagram carrying one state,
// and a bare state (the untyped upload this wire no longer has) is not.
func TestFIRoundTrip(t *testing.T) {
	st := fisync.State{Player: 4, Anim: 1, Seq: 9, Pos: geom.V2(1.5, -2), Heading: 0.25}
	b := EncodeFI(nil, st)
	if DgramType(b) != DgramFI {
		t.Fatalf("DgramType = %d, want DgramFI", DgramType(b))
	}
	if got, err := DecodeFI(b); err != nil || got != st {
		t.Fatalf("FI round trip: %+v, %v", got, err)
	}
	if _, err := DecodeFI(b[:len(b)-1]); err == nil {
		t.Fatal("truncated FI upload decoded")
	}
	if typ := DgramType(st.Encode(nil)); typ != 0 {
		t.Fatalf("an untyped state reads as type %d", typ)
	}
}

// TestReassemblerProperty is the randomized property test: under random
// loss, duplication, reordering and truncation the reassembler must never
// panic, never deliver a frame whose bytes differ from the original, and
// must free every buffer once streams drain.
func TestReassemblerProperty(t *testing.T) {
	for trial := 0; trial < 200; trial++ {
		rng := rand.New(rand.NewSource(int64(trial)))
		r := NewReassembler(ReassemblerConfig{})
		frames := map[frameKey][]byte{}
		var wire [][]byte
		nFrames := 1 + rng.Intn(6)
		for seq := 0; seq < nFrames; seq++ {
			data := testFrame(rng, 1+rng.Intn(5*ChunkPayload))
			meta := FrameMeta{StreamID: uint32(trial % 3), FrameSeq: uint32(seq)}
			frames[frameKey{meta.StreamID, meta.FrameSeq}] = data
			fec := 0
			if rng.Intn(2) == 0 {
				fec = 1 + rng.Intn(9)
			}
			wire = SliceFrame(wire, meta, data, fec)
		}
		// Impair: drop 20%, duplicate 10%, truncate 5%, then shuffle.
		var sent [][]byte
		for _, d := range wire {
			p := rng.Float64()
			switch {
			case p < 0.20:
				continue
			case p < 0.30:
				sent = append(sent, d, d)
			case p < 0.35:
				sent = append(sent, d[:rng.Intn(len(d))])
			default:
				sent = append(sent, d)
			}
		}
		rng.Shuffle(len(sent), func(i, j int) { sent[i], sent[j] = sent[j], sent[i] })
		for i, d := range sent {
			if f := r.Offer(d, float64(i)); f != nil {
				want := frames[frameKey{f.StreamID, f.FrameSeq}]
				if !bytes.Equal(f.Data, want) {
					t.Fatalf("trial %d: delivered frame differs from original", trial)
				}
			}
		}
		// Abandon whatever is left; all buffers must free.
		for _, pend := range r.Stale(1e12, 0) {
			r.Abandon(pend.StreamID, pend.FrameSeq)
		}
		if r.Pending() != 0 || r.PendingBytes() != 0 {
			t.Fatalf("trial %d: %d partials / %d bytes leaked", trial, r.Pending(), r.PendingBytes())
		}
	}
}

// TestReassemblerRecoversLossyStream sends a stream of FEC-protected
// frames through seeded loss and reordering: every delivered frame must be
// byte-identical, single chunk losses must be repaired by parity, and a
// fixed seed must give the same outcome twice.
func TestReassemblerRecoversLossyStream(t *testing.T) {
	run := func(seed int64) (delivered int, recovered int64, sum []byte) {
		rng := rand.New(rand.NewSource(seed))
		r := NewReassembler(ReassemblerConfig{})
		frames := map[uint32][]byte{}
		for seq := uint32(1); seq <= 20; seq++ {
			data := testFrame(rng, 1+rng.Intn(4*ChunkPayload))
			frames[seq] = data
			meta := FrameMeta{StreamID: 1, FrameSeq: seq, Point: geom.GridPoint{I: int(seq)}}
			// Impair: drop 5%, then swap 10% of neighbours.
			var sent [][]byte
			for _, d := range SliceFrame(nil, meta, data, DefaultFECGroup) {
				if rng.Float64() >= 0.05 {
					sent = append(sent, d)
				}
			}
			for i := 1; i < len(sent); i++ {
				if rng.Float64() < 0.10 {
					sent[i-1], sent[i] = sent[i], sent[i-1]
				}
			}
			for _, d := range sent {
				if f := r.Offer(d, float64(seq)); f != nil {
					if !bytes.Equal(f.Data, frames[f.FrameSeq]) {
						t.Fatalf("frame %d corrupted in transit", f.FrameSeq)
					}
					delivered++
					sum = append(sum, f.Data[0])
				}
			}
		}
		return delivered, r.Stats().Recovered, sum
	}

	d1, rec1, sum1 := run(7)
	if d1 == 0 {
		t.Fatal("no frames delivered through the lossy stream")
	}
	if rec1 == 0 {
		t.Error("5% loss over 20 multi-chunk frames triggered no FEC recovery")
	}
	d2, rec2, sum2 := run(7)
	if d1 != d2 || rec1 != rec2 || !bytes.Equal(sum1, sum2) {
		t.Errorf("same seed diverged: %d/%d delivered, %d/%d recovered", d1, d2, rec1, rec2)
	}
}

// FuzzReassembler feeds arbitrary datagrams: no panic, and anything
// delivered must satisfy its own header checksum. Every input also opens
// more partial frames than the reassembler keeps, so the overflow eviction
// runs on fuzzed state.
func FuzzReassembler(f *testing.F) {
	rng := rand.New(rand.NewSource(1))
	data := testFrame(rng, 2*ChunkPayload+9)
	seed := SliceFrame(nil, FrameMeta{StreamID: 1, FrameSeq: 1}, data, 4)
	for _, d := range seed {
		f.Add(d)
	}
	// The first chunk of maxPartialFrames+1 other frames: each opens a
	// partial that never completes.
	var heads [][]byte
	for k := 0; k <= maxPartialFrames; k++ {
		heads = append(heads, SliceFrame(nil, FrameMeta{StreamID: 1, FrameSeq: uint32(2 + k)}, data, 4)[0])
	}
	f.Add(EncodeNack(nil, Nack{StreamID: 1, FrameSeq: 1, Missing: []uint16{0, 1}}))
	f.Add([]byte{DgramMagic, DgramChunk})
	f.Fuzz(func(t *testing.T, b []byte) {
		r := NewReassembler(ReassemblerConfig{})
		// Offer the raw input plus a few mutations of a valid frame mixed in.
		if got := r.Offer(b, 0); got != nil {
			if crc32.ChecksumIEEE(got.Data) == 0 && len(got.Data) == 0 {
				t.Fatalf("delivered empty frame")
			}
		}
		for _, d := range heads {
			m := append([]byte(nil), d...)
			if len(b) > 0 {
				m[int(b[0])%len(m)] ^= 1
			}
			if got := r.Offer(m, 0); got != nil && crc32.ChecksumIEEE(got.Data) != binary_crc(m) {
				t.Fatalf("delivered frame violating its own checksum")
			}
		}
		for i, d := range seed {
			m := append([]byte(nil), d...)
			if len(b) > 0 {
				m[int(b[0])%len(m)] ^= byte(i + 1)
			}
			if got := r.Offer(m, float64(i)); got != nil && crc32.ChecksumIEEE(got.Data) != binary_crc(m) {
				// A delivered frame must match the checksum its header
				// declared; binary_crc reads it back from the datagram.
				t.Fatalf("delivered frame violating its own checksum")
			}
		}
	})
}

// binary_crc reads the declared frame CRC out of a chunk datagram.
func binary_crc(d []byte) uint32 {
	if len(d) < dgramHdrLen {
		return 0
	}
	return uint32(d[28])<<24 | uint32(d[29])<<16 | uint32(d[30])<<8 | uint32(d[31])
}

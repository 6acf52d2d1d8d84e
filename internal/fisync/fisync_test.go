package fisync

import (
	"testing"
	"testing/quick"

	"coterie/internal/geom"
)

func TestEncodeDecodeRoundTrip(t *testing.T) {
	f := func(player, anim uint8, seq uint32, x, z, h float64) bool {
		s := State{Player: player, Anim: anim, Seq: seq, Pos: geom.V2(x, z), Heading: h}
		buf := s.Encode(nil)
		if len(buf) != WireSize {
			return false
		}
		got, rest, err := DecodeState(buf)
		return err == nil && len(rest) == 0 && got == s
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestDecodeShort(t *testing.T) {
	if _, _, err := DecodeState(make([]byte, WireSize-1)); err != ErrShort {
		t.Fatalf("err = %v", err)
	}
	// A reply whose last state lost its tail is rejected whole.
	if got, err := DecodeStates(make([]byte, 2*WireSize-1)); err != ErrShort || got != nil {
		t.Fatalf("truncated list: %v, err = %v", got, err)
	}
}

func TestDecodeStream(t *testing.T) {
	var want []State
	for i := 0; i < 3; i++ {
		want = append(want, State{Player: uint8(i), Seq: uint32(i)})
	}
	buf := AppendStates([]byte{0xC7}, want)
	if len(buf) != 1+3*WireSize {
		t.Fatalf("AppendStates wrote %d bytes after the prefix", len(buf)-1)
	}
	got, err := DecodeStates(buf[1:])
	if err != nil || len(got) != 3 {
		t.Fatalf("DecodeStates: %v, %v", got, err)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("state %d: got %v, want %v", i, got[i], want[i])
		}
	}
	if got, err := DecodeStates(nil); err != nil || len(got) != 0 {
		t.Fatalf("empty reply: %v, %v", got, err)
	}
}

func TestHubUpdateAndSnapshot(t *testing.T) {
	h := NewHub()
	h.Update(State{Player: 0, Seq: 1, Pos: geom.V2(1, 1)})
	h.Update(State{Player: 1, Seq: 1, Pos: geom.V2(2, 2)})
	h.Update(State{Player: 2, Seq: 1, Pos: geom.V2(3, 3)})
	snap := h.Snapshot(1)
	if len(snap) != 2 {
		t.Fatalf("snapshot size %d", len(snap))
	}
	for _, s := range snap {
		if s.Player == 1 {
			t.Fatal("snapshot contains the requester")
		}
	}
	if snap[0].Player != 0 || snap[1].Player != 2 {
		t.Fatalf("snapshot order: %v", snap)
	}
	if n := len(h.Snapshot(9)); n != 3 {
		t.Fatalf("players = %d", n)
	}
}

func TestHubDropsStaleSeq(t *testing.T) {
	h := NewHub()
	h.Update(State{Player: 0, Seq: 10, Anim: 1})
	h.Update(State{Player: 0, Seq: 9, Anim: 2}) // late datagram
	snap := h.Snapshot(9)
	if snap[0].Anim != 1 {
		t.Fatal("stale update overwrote newer state")
	}
	// Wraparound: 2 is newer than 0xFFFFFFFF.
	h = NewHub()
	h.Update(State{Player: 0, Seq: 0xFFFFFFFF, Anim: 3})
	h.Update(State{Player: 0, Seq: 2, Anim: 4})
	snap = h.Snapshot(9)
	if snap[0].Anim != 4 {
		t.Fatal("wraparound sequence rejected")
	}
}

func TestNewerSeqWraparound(t *testing.T) {
	cases := []struct {
		a, b uint32
		want bool
	}{
		{1, 0, true},
		{0, 1, false},
		{5, 5, false}, // equal is not newer (a resent datagram must not count)
		// uint32 boundary: small numbers follow huge ones.
		{0, 0xFFFFFFFF, true},
		{0xFFFFFFFF, 0, false},
		{2, 0xFFFFFFFE, true},
		{0xFFFFFFFE, 2, false},
		// Exactly half the space apart: int32(a-b) is math.MinInt32,
		// which is not > 0, so the tie breaks toward "stale" both ways —
		// the hub never oscillates between two equidistant sequences.
		{0x80000000, 0, false},
		{0, 0x80000000, false},
		// Just under half the space counts as newer.
		{0x7FFFFFFF, 0, true},
		{0, 0x80000001, true},
	}
	for _, c := range cases {
		if got := newerSeq(c.a, c.b); got != c.want {
			t.Errorf("newerSeq(%#x, %#x) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}

func TestHubSeqEdgeCases(t *testing.T) {
	// A duplicate sequence (retransmitted datagram) must not overwrite.
	h := NewHub()
	h.Update(State{Player: 0, Seq: 7, Anim: 1})
	h.Update(State{Player: 0, Seq: 7, Anim: 2})
	if snap := h.Snapshot(9); snap[0].Anim != 1 {
		t.Fatal("duplicate sequence overwrote state")
	}

	// Stale updates straddling the wraparound: 0xFFFFFFFE arrives after
	// the counter already wrapped to 1.
	h = NewHub()
	h.Update(State{Player: 0, Seq: 0xFFFFFFFE, Anim: 1})
	h.Update(State{Player: 0, Seq: 1, Anim: 2})          // wrapped: newer
	h.Update(State{Player: 0, Seq: 0xFFFFFFFF, Anim: 3}) // pre-wrap straggler: stale
	if snap := h.Snapshot(9); snap[0].Anim != 2 {
		t.Fatalf("post-wrap state lost: anim = %d", snap[0].Anim)
	}

	// A fresh hub accepts any first sequence, including 0 and the max.
	h = NewHub()
	h.Update(State{Player: 0, Seq: 0, Anim: 1})
	h.Update(State{Player: 1, Seq: 0xFFFFFFFF, Anim: 2})
	if n := len(h.Snapshot(9)); n != 2 {
		t.Fatalf("players = %d", n)
	}

	// Sequences advancing across the boundary one step at a time.
	h = NewHub()
	anim := uint8(0)
	for seq := uint32(0xFFFFFFFD); seq != 3; seq++ {
		anim++
		h.Update(State{Player: 0, Seq: seq, Anim: anim})
	}
	if snap := h.Snapshot(9); snap[0].Anim != anim || snap[0].Seq != 2 {
		t.Fatalf("walk across wraparound ended at seq %d anim %d", snap[0].Seq, snap[0].Anim)
	}
}

func TestTickBytesMatchesTable9Scaling(t *testing.T) {
	// Table 9: FI bandwidth is ~1 Kbps at 1 player and 260-275 Kbps at 4.
	// At 60 Hz the hub's per-tick traffic (n uploads, n snapshots) implies
	// those rates.
	tickBytes := func(n int) int64 {
		h := NewHub()
		for p := 0; p < n; p++ {
			h.Update(State{Player: uint8(p), Seq: 1})
		}
		for p := 0; p < n; p++ {
			h.Snapshot(uint8(p))
		}
		return h.UploadBytes + h.DownloadBytes
	}
	kbps := func(n int) float64 { return float64(tickBytes(n)*60*8) / 1000 }
	if k := kbps(1); k > 25 {
		t.Fatalf("1P FI bandwidth %.1f Kbps, want tiny", k)
	}
	k4 := kbps(4)
	if k4 < 150 || k4 > 450 {
		t.Fatalf("4P FI bandwidth %.1f Kbps, want ~270", k4)
	}
	// Superlinear growth in n (each of n clients downloads n-1 states).
	if !(kbps(2) < kbps(3) && kbps(3) < k4) {
		t.Fatal("FI bandwidth should grow with players")
	}
	if tickBytes(0) != 0 {
		t.Fatal("no players, no traffic")
	}
}

func TestHubTrafficCounters(t *testing.T) {
	h := NewHub()
	h.Update(State{Player: 0, Seq: 1})
	if h.UploadBytes != WireSize+headerSize {
		t.Fatalf("upload bytes %d", h.UploadBytes)
	}
	h.Snapshot(0) // no other players: heartbeat
	if h.DownloadBytes != 2 {
		t.Fatalf("heartbeat bytes %d", h.DownloadBytes)
	}
	h.Update(State{Player: 1, Seq: 1})
	h.Snapshot(0)
	if h.DownloadBytes != 2+WireSize+headerSize {
		t.Fatalf("download bytes %d", h.DownloadBytes)
	}
}

// FuzzDecodeStates holds the FI reply decoder the UDP client runs on every
// reply payload: any input either decodes, exactly when its length is a
// whole number of states, into states that encode back to the same bytes,
// or fails with ErrShort and no states.
func FuzzDecodeStates(f *testing.F) {
	f.Add(AppendStates(nil, []State{
		{Player: 1, Anim: 2, Seq: 3, Pos: geom.V2(4.5, -6), Heading: 0.25},
		{Player: 255, Seq: 1<<32 - 1, Pos: geom.V2(-1e300, 1e-300), Heading: -3},
	}))
	f.Add(make([]byte, WireSize-1))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, b []byte) {
		states, err := DecodeStates(b)
		if len(b)%WireSize != 0 {
			if err != ErrShort || states != nil {
				t.Fatalf("%d bytes: %d states, err %v; want ErrShort", len(b), len(states), err)
			}
			return
		}
		if err != nil || len(states) != len(b)/WireSize {
			t.Fatalf("%d bytes: %d states, err %v", len(b), len(states), err)
		}
		if re := AppendStates(nil, states); string(re) != string(b) {
			t.Fatalf("re-encoded %x, decoded from %x", re, b)
		}
	})
}

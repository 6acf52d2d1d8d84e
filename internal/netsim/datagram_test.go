package netsim

import (
	"bytes"
	"math/rand"
	"testing"

	"coterie/internal/geom"
	"coterie/internal/transport"
)

// TestDgramLinkDrivesReassembler exercises the transport reassembler
// through the sim-clock medium: frames sliced with FEC, sent through a
// link with loss and reorder, must come out byte-identical (single
// losses repaired by parity) and deterministically for a fixed seed.
func TestDgramLinkDrivesReassembler(t *testing.T) {
	run := func(seed int64) (delivered int, recovered int64, sum []byte) {
		sim := NewSim()
		link := NewDgramLink(sim, DgramConfig{
			LossRate:    0.05,
			ReorderRate: 0.10,
			DelayMs:     2,
			JitterMs:    1,
			Seed:        seed,
		})
		r := transport.NewReassembler(transport.ReassemblerConfig{})
		frames := map[uint32][]byte{}
		link.Deliver = func(b []byte) {
			if f := r.Offer(b, sim.Now()); f != nil {
				want := frames[f.FrameSeq]
				if !bytes.Equal(f.Data, want) {
					t.Fatalf("frame %d corrupted in transit", f.FrameSeq)
				}
				delivered++
				sum = append(sum, f.Data[0])
			}
		}
		rng := rand.New(rand.NewSource(99))
		for seq := uint32(1); seq <= 20; seq++ {
			data := make([]byte, 1+rng.Intn(4*transport.ChunkPayload))
			rng.Read(data)
			frames[seq] = data
			meta := transport.FrameMeta{StreamID: 1, FrameSeq: seq, Point: geom.GridPoint{I: int(seq)}}
			for _, d := range transport.SliceFrame(nil, meta, data, transport.DefaultFECGroup) {
				link.Send(d)
			}
			sim.Run(sim.Now() + 10)
		}
		sim.Run(sim.Now() + 100)
		return delivered, r.Stats().Recovered, sum
	}

	d1, rec1, sum1 := run(7)
	if d1 == 0 {
		t.Fatal("no frames delivered through the lossy link")
	}
	if rec1 == 0 {
		t.Error("5% loss over 20 multi-chunk frames triggered no FEC recovery")
	}
	d2, rec2, sum2 := run(7)
	if d1 != d2 || rec1 != rec2 || !bytes.Equal(sum1, sum2) {
		t.Errorf("same seed diverged: %d/%d delivered, %d/%d recovered", d1, d2, rec1, rec2)
	}
}

// TestDgramLinkStats checks the medium's own accounting.
func TestDgramLinkStats(t *testing.T) {
	sim := NewSim()
	link := NewDgramLink(sim, DgramConfig{LossRate: 0.5, Seed: 3})
	got := 0
	link.Deliver = func([]byte) { got++ }
	for i := 0; i < 1000; i++ {
		link.Send([]byte{byte(i)})
	}
	sim.Run(1000)
	sent, dropped, _ := link.Stats()
	if sent != 1000 {
		t.Fatalf("sent = %d", sent)
	}
	if got+int(dropped) != 1000 {
		t.Fatalf("delivered %d + dropped %d != 1000", got, dropped)
	}
	if dropped < 400 || dropped > 600 {
		t.Fatalf("50%% loss dropped %d of 1000", dropped)
	}
}

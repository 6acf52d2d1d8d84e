package netsim

import (
	"math"
	"sort"
	"testing"
)

func TestSimOrdering(t *testing.T) {
	s := NewSim()
	var order []int
	s.At(5, func() { order = append(order, 2) })
	s.At(1, func() { order = append(order, 1) })
	s.At(5, func() { order = append(order, 3) }) // FIFO at equal times
	s.Run(10)
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("order = %v", order)
	}
	if s.Now() != 10 {
		t.Fatalf("clock = %v, want 10", s.Now())
	}
}

func TestSimAfterAndNestedScheduling(t *testing.T) {
	s := NewSim()
	var fired []float64
	s.After(3, func() {
		fired = append(fired, s.Now())
		s.After(4, func() { fired = append(fired, s.Now()) })
	})
	s.Run(100)
	if len(fired) != 2 || fired[0] != 3 || fired[1] != 7 {
		t.Fatalf("fired = %v", fired)
	}
}

func TestSimRunStopsAtBoundary(t *testing.T) {
	s := NewSim()
	ran := false
	s.At(50, func() { ran = true })
	s.Run(49)
	if ran {
		t.Fatal("event beyond the horizon ran")
	}
	if s.Now() != 49 {
		t.Fatalf("clock = %v", s.Now())
	}
	s.Run(51)
	if !ran {
		t.Fatal("event within the horizon did not run")
	}
}

func TestSimPastSchedulingClamps(t *testing.T) {
	s := NewSim()
	s.At(10, func() {
		s.At(5, func() {}) // in the past: clamps to now
	})
	s.Run(20)
	if s.Now() != 20 {
		t.Fatalf("clock = %v", s.Now())
	}
}

func TestSingleTransferLatency(t *testing.T) {
	s := NewSim()
	w := NewWiFi(s)
	// 550 KB at 500 Mbps: serialisation = 550*1024*8 / 500e6 s = 9.01 ms;
	// plus 2 ms base = ~11 ms. This matches the paper's ~9 ms 1-player
	// net delay for ~550 KB frames (Table 1).
	var gotMs float64
	w.Transfer(0, 550*1024, func(start, end float64) { gotMs = end - start })
	s.Run(1e6)
	want := BaseLatencyMs + 550*1024*8/(GoodputMbps*1e6)*1000
	if math.Abs(gotMs-want) > 0.01 {
		t.Fatalf("latency = %.3f ms, want %.3f", gotMs, want)
	}
}

func TestTwoConcurrentTransfersHalveRate(t *testing.T) {
	// The §3 scaling result: two players double each other's transfer
	// latency. Two equal transfers starting together should each take
	// about twice the solo serialisation time after the base latency.
	s := NewSim()
	w := NewWiFi(s)
	const bytes = 500 * 1024
	solo := float64(bytes) * 8 / (GoodputMbps * 1e6) * 1000
	var l1, l2 float64
	w.Transfer(1, bytes, func(a, b float64) { l1 = b - a - BaseLatencyMs })
	w.Transfer(2, bytes, func(a, b float64) { l2 = b - a - BaseLatencyMs })
	s.Run(1e6)
	if math.Abs(l1-2*solo) > 0.05*solo || math.Abs(l2-2*solo) > 0.05*solo {
		t.Fatalf("latencies %.2f/%.2f ms, want ~%.2f (2x solo)", l1, l2, 2*solo)
	}
}

func TestShortTransferFinishesFirstUnderSharing(t *testing.T) {
	s := NewSim()
	w := NewWiFi(s)
	var endSmall, endBig float64
	w.Transfer(1, 10_000, func(a, b float64) { endSmall = b })
	w.Transfer(2, 1_000_000, func(a, b float64) { endBig = b })
	s.Run(1e6)
	if endSmall >= endBig {
		t.Fatalf("small ended at %.3f, big at %.3f", endSmall, endBig)
	}
	// Big transfer total time: shares medium while small alive, so it
	// must exceed base latency plus its solo serialisation.
	soloBig := BaseLatencyMs + 1_000_000*8/(GoodputMbps*1e6)*1000
	if endBig <= soloBig {
		t.Fatalf("big transfer unaffected by contention: %.2f <= %.2f", endBig, soloBig)
	}
}

func TestStaggeredTransfersAccounting(t *testing.T) {
	s := NewSim()
	w := NewWiFi(s)
	var ends []float64
	for i := 0; i < 4; i++ {
		i := i
		s.At(float64(i)*5, func() {
			w.Transfer(i, 200*1024, func(a, b float64) { ends = append(ends, b) })
		})
	}
	s.Run(1e6)
	if len(ends) != 4 {
		t.Fatalf("%d transfers completed", len(ends))
	}
	if !sort.Float64sAreSorted(ends) {
		t.Fatalf("completion order not monotone: %v", ends)
	}
	for i := 0; i < 4; i++ {
		if w.FlowBytes(i) != 200*1024 {
			t.Fatalf("flow %d bytes = %d", i, w.FlowBytes(i))
		}
	}
	if w.ActiveTransfers() != 0 {
		t.Fatalf("%d transfers still active", w.ActiveTransfers())
	}
}

func TestLatencyGrowsWithPlayers(t *testing.T) {
	// Fig 11's mechanism: per-transfer latency grows roughly linearly in
	// the number of concurrent streams.
	meanLatency := func(players int) float64 {
		s := NewSim()
		w := NewWiFi(s)
		var total float64
		var count int
		// Each player fetches a 550 KB frame every 16.7 ms slot for 60
		// slots (pathological full-rate prefetch, like Multi-Furion).
		for p := 0; p < players; p++ {
			p := p
			for k := 0; k < 60; k++ {
				k := k
				s.At(float64(k)*16.7, func() {
					w.Transfer(p, 550*1024, func(a, b float64) {
						total += b - a
						count++
					})
				})
			}
		}
		s.Run(1e9)
		return total / float64(count)
	}
	l1 := meanLatency(1)
	l2 := meanLatency(2)
	l4 := meanLatency(4)
	if !(l1 < l2 && l2 < l4) {
		t.Fatalf("latency not increasing: %v %v %v", l1, l2, l4)
	}
	if l2 < 1.6*l1 {
		t.Fatalf("2 players should roughly double latency: %v vs %v", l2, l1)
	}
}

func TestZeroByteTransfer(t *testing.T) {
	s := NewSim()
	w := NewWiFi(s)
	doneAt := -1.0
	w.Transfer(0, 0, func(a, b float64) { doneAt = b })
	s.Run(1e6)
	if doneAt < 0 {
		t.Fatal("zero-byte transfer never completed")
	}
}

func TestConservationAndWorkBounds(t *testing.T) {
	// Property: every byte offered is delivered exactly once, and no
	// transfer completes faster than base latency + solo serialisation.
	s := NewSim()
	w := NewWiFi(s)
	sizes := []int{10_000, 250_000, 90_000, 400_000, 33_000, 610_000}
	var total int64
	for i, sz := range sizes {
		i, sz := i, sz
		total += int64(sz)
		s.At(float64(i%3)*4, func() {
			w.Transfer(i, sz, func(start, end float64) {
				solo := BaseLatencyMs + float64(sz)*8/(GoodputMbps*1e6)*1000
				if end-start < solo-1e-6 {
					t.Errorf("transfer %d faster than physics: %.3f < %.3f", i, end-start, solo)
				}
			})
		})
	}
	s.Run(1e9)
	var perFlow int64
	for i := range sizes {
		perFlow += w.FlowBytes(i)
	}
	if perFlow != total {
		t.Fatalf("per-flow accounting %d != %d", perFlow, total)
	}
}

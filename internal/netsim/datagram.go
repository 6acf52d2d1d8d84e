package netsim

import "math/rand"

// Datagram medium: the sim-clock analogue of a lossy UDP path, so the
// datagram frame path's reassembly/FEC/NACK machinery is exercised by the
// same deterministic event loop as the rest of the testbed.

// DgramConfig shapes one direction of a datagram link.
type DgramConfig struct {
	// LossRate is the independent per-datagram drop probability in [0,1].
	LossRate float64
	// ReorderRate is the probability a datagram is held back and
	// delivered ReorderDelayMs late, overtaking its successors.
	ReorderRate    float64
	ReorderDelayMs float64
	// DelayMs is the one-way propagation delay; JitterMs adds a uniform
	// random component on top.
	DelayMs  float64
	JitterMs float64
	// Seed makes the loss/reorder/jitter draws reproducible.
	Seed int64
}

// DgramLink delivers datagrams over a Sim clock with configurable loss,
// reorder and delay. Deliver runs as a sim event; payloads are copied at
// Send, so the caller may reuse its buffer.
type DgramLink struct {
	sim *Sim
	cfg DgramConfig
	rng *rand.Rand
	// Deliver receives each surviving datagram at its arrival time.
	Deliver func(b []byte)

	sent, dropped, reordered int64
}

// NewDgramLink creates a link on the sim clock.
func NewDgramLink(sim *Sim, cfg DgramConfig) *DgramLink {
	if cfg.ReorderDelayMs <= 0 {
		cfg.ReorderDelayMs = 5
	}
	return &DgramLink{sim: sim, cfg: cfg, rng: rand.New(rand.NewSource(cfg.Seed))}
}

// Send queues one datagram for delivery (or loses it).
func (l *DgramLink) Send(b []byte) {
	l.sent++
	if l.cfg.LossRate > 0 && l.rng.Float64() < l.cfg.LossRate {
		l.dropped++
		return
	}
	d := l.cfg.DelayMs
	if l.cfg.JitterMs > 0 {
		d += l.rng.Float64() * l.cfg.JitterMs
	}
	if l.cfg.ReorderRate > 0 && l.rng.Float64() < l.cfg.ReorderRate {
		l.reordered++
		d += l.cfg.ReorderDelayMs
	}
	cp := append([]byte(nil), b...)
	l.sim.After(d, func() {
		if l.Deliver != nil {
			l.Deliver(cp)
		}
	})
}

// Stats reports sent/dropped/reordered datagram counts.
func (l *DgramLink) Stats() (sent, dropped, reordered int64) {
	return l.sent, l.dropped, l.reordered
}

package server

import (
	"math"

	"coterie/internal/geom"
	"coterie/internal/transport"
)

// This file is the quality-degrade ladder: the frame the server serves
// when a request's deadline can no longer afford the frame it asked for.
// The ladder is exact → stale: the one rung below an exact frame is a
// cached frame that meets all three of the client cache's criteria
// (§5.3, cache.Cache): the same leaf, within the leaf's calibrated
// DistThresh — the distance below which SSIM ≥ ssim.GoodThreshold against
// the true frame by construction (§4.4) — and the same near-BE object
// set. That is the substitution the paper's client cache already makes.
// The ladder degrades latency into similarity, never into visible quality
// below the bar, and never synthesizes pixels: every served frame is the
// exact render of some grid point.

// maxStaleRadius bounds the ring scan for a stale substitute, in grid
// steps: in the walking games (1/32 m steps) the rung scans at most
// 0.19 m, narrower than the client cache's reach. Calibrated thresholds
// are wider: 481 of viking's 697 leaves and all 40 of pool's exceed 6
// steps (medians 15.5 and 9.1 steps). The cap keeps the fallback from
// turning into a store sweep.
const maxStaleRadius = 6

// staleRung serves pt off the stale rung when a cached frame the
// similarity calibration vouches for can stand in for it — a stored frame
// of the same leaf, within its DistThresh and with the same near-set
// signature, nearest first: res takes those bytes, keeping the stages the
// request already spent. It reports false, leaving res alone, when nothing
// qualifies or pt itself is resident (the exact frame is a plain store
// hit). It never triggers or joins a render (peek only) — the whole point
// is serving without queueing — and walks Chebyshev rings outward so the
// common case (an immediate neighbour on the client's walking path) exits
// early. Stale serves bypass the delta path and never become references:
// their bytes are not the render of pt a later delta would have to name.
func (s *Server) staleRung(pt geom.GridPoint, res *frameResult) bool {
	grid := s.env.Game.Scene.Grid
	leaf := s.env.Map.LeafAt(grid.Pos(pt))
	if leaf == nil {
		return false
	}
	if _, resident := s.store.peek(pt); resident {
		return false
	}
	maxR := min(int(math.Ceil(leaf.DistThresh/grid.Step)), maxStaleRadius)
	// pt's signature is looked up at the first resident candidate: a late
	// request with no neighbour resident pays no near-set query.
	var sig uint64
	haveSig := false
	for r := 1; r <= maxR; r++ {
		var best []byte
		bestDist := leaf.DistThresh + 1
		for _, cand := range chebyshevRing(pt, r) {
			if !grid.In(cand) {
				continue
			}
			d := grid.Dist(pt, cand)
			if d > leaf.DistThresh || d >= bestDist || s.env.Map.LeafAt(grid.Pos(cand)) != leaf {
				continue
			}
			data, hit := s.store.peek(cand)
			if !hit {
				continue
			}
			if !haveSig {
				_, sig, _ = s.env.Meta(pt)
				haveSig = true
			}
			if _, candSig, _ := s.env.Meta(cand); candSig == sig {
				best, bestDist = data, d
			}
		}
		if best != nil {
			s.obs.degradeStale.Inc()
			res.Data, res.Rung = best, transport.RungStale
			return true
		}
	}
	return false
}

// chebyshevRing returns the grid points at Chebyshev distance r >= 1 from
// pt.
func chebyshevRing(pt geom.GridPoint, r int) []geom.GridPoint {
	ring := make([]geom.GridPoint, 0, 8*r)
	for di := -r; di <= r; di++ {
		ring = append(ring,
			geom.GridPoint{I: pt.I + di, J: pt.J - r},
			geom.GridPoint{I: pt.I + di, J: pt.J + r})
	}
	for dj := -r + 1; dj <= r-1; dj++ {
		ring = append(ring,
			geom.GridPoint{I: pt.I - r, J: pt.J + dj},
			geom.GridPoint{I: pt.I + r, J: pt.J + dj})
	}
	return ring
}

package server

import (
	"math"

	"coterie/internal/geom"
)

// This file is the quality-degrade ladder: the frame the server serves
// when a request's deadline can no longer afford the frame it asked for.
// The ladder is exact → stale: the one rung below an exact frame is a
// cached frame within the leaf's calibrated DistThresh, the distance
// below which SSIM ≥ ssim.GoodThreshold against the true frame by
// construction (§4.4) — the substitution the paper's client cache already
// makes. The ladder degrades latency into similarity, never into visible
// quality below the bar, and never synthesizes pixels: every served frame
// is the exact render of some grid point.

// maxStaleRadius bounds the ring scan for a stale substitute, in grid
// steps. DistThresh rarely exceeds a few steps in calibrated maps; the
// cap keeps a pathological threshold from turning the fallback into a
// store sweep.
const maxStaleRadius = 6

// staleFor looks for a cached frame the similarity calibration vouches
// for as a stand-in for pt: a stored frame within the leaf's DistThresh,
// nearest first. It never triggers or joins a render (peek only) — the
// whole point is serving without queueing. The scan walks Chebyshev
// rings outward so the common case (pt itself, or an immediate
// neighbour on the client's walking path) exits early.
func (s *Server) staleFor(pt geom.GridPoint) (data []byte, refPt geom.GridPoint, ok bool) {
	grid := s.env.Game.Scene.Grid
	leaf := s.env.Map.LeafAt(grid.Pos(pt))
	if leaf == nil {
		return nil, geom.GridPoint{}, false
	}
	maxR := int(math.Ceil(leaf.DistThresh / grid.Step))
	if maxR > maxStaleRadius {
		maxR = maxStaleRadius
	}
	for r := 0; r <= maxR; r++ {
		var bestData []byte
		var bestPt geom.GridPoint
		bestDist := leaf.DistThresh + 1
		for _, cand := range chebyshevRing(pt, r) {
			if !grid.In(cand) {
				continue
			}
			d := grid.Dist(pt, cand)
			if d > leaf.DistThresh || d >= bestDist {
				continue
			}
			if r > 0 && s.env.Map.LeafAt(grid.Pos(cand)) != leaf {
				continue
			}
			if data, hit := s.store.peek(cand); hit {
				bestData, bestPt, bestDist = data, cand, d
			}
		}
		if bestData != nil {
			return bestData, bestPt, true
		}
	}
	return nil, geom.GridPoint{}, false
}

// chebyshevRing returns the grid points at Chebyshev distance r from pt
// (just pt itself for r=0).
func chebyshevRing(pt geom.GridPoint, r int) []geom.GridPoint {
	if r == 0 {
		return []geom.GridPoint{pt}
	}
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

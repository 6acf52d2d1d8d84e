package server

import (
	"sync"

	"coterie/internal/codec"
	"coterie/internal/geom"
	"coterie/internal/img"
	"coterie/internal/lru"
	"coterie/internal/transport"
)

// This file is the server side of the similarity-aware frame path: delta
// coding against frames the client provably holds (stop re-sending what
// the client already has). It exploits the paper's core observation that
// nearby frames are highly similar, gated by the SSIM machinery already
// calibrated per leaf region: a reference qualifies for delta coding when
// it sits within the leaf's DistThresh (the distance below which SSIM ≥
// ssim.GoodThreshold by construction, §4.4).
//
// Reference identity is the grid point: a frame's bytes are a pure
// function of its point, so the point names exactly the bytes the client
// decoded, however often the store evicted and re-rendered it since. Which
// replies become references, and for how long, is transport.HeldRefs' one
// rule, which the live client applies to the same replies.

// deltaFor tries to produce a delta encoding of pt's frame against the
// session's best held reference: the nearest held point in the same
// cutoff leaf within the leaf's SSIM-calibrated distance threshold. It
// reports ok=false when no reference qualifies, the reference bytes are
// no longer reconstructible, or the delta does not beat the intra size.
func (s *Server) deltaFor(pt geom.GridPoint, intra []byte, refs *transport.HeldRefs[struct{}]) ([]byte, geom.GridPoint, bool) {
	if refs.Len() == 0 {
		return nil, geom.GridPoint{}, false
	}
	grid := s.env.Game.Scene.Grid
	pos := grid.Pos(pt)
	leaf := s.env.Map.LeafAt(pos)
	if leaf == nil {
		return nil, geom.GridPoint{}, false
	}
	// Best reference: nearest held frame whose similarity the cutoff map
	// vouches for (same leaf, within DistThresh). Holding pt itself is the
	// ideal case — the re-request costs a skip map and nothing else.
	// Equidistant references tie-break on (J, I), so the served reference,
	// kind and bytes do not depend on the order the holdings are visited in.
	var refPt geom.GridPoint
	bestDist := leaf.DistThresh + 1
	refs.Each(func(hp geom.GridPoint, _ struct{}) {
		d := grid.Dist(pt, hp)
		if d > leaf.DistThresh || d > bestDist {
			return
		}
		if d == bestDist && !(hp.J < refPt.J || (hp.J == refPt.J && hp.I < refPt.I)) {
			return
		}
		if s.env.Map.LeafAt(grid.Pos(hp)) != leaf {
			return
		}
		refPt, bestDist = hp, d
	})
	if bestDist > leaf.DistThresh {
		return nil, geom.GridPoint{}, false
	}
	if d, ok := s.store.delta(pt, refPt); ok {
		return d, refPt, true
	}
	cur := s.reconFor(pt, intra)
	if cur == nil {
		return nil, geom.GridPoint{}, false
	}
	refRecon := s.reconFor(refPt, nil)
	if refRecon == nil {
		return nil, geom.GridPoint{}, false
	}
	d := codec.DeltaEncode(cur, refRecon, s.env.CRF)
	if d == nil || len(d) >= len(intra) {
		return nil, geom.GridPoint{}, false
	}
	s.store.putDelta(pt, refPt, d)
	return d, refPt, true
}

// reconFor returns the decoded reconstruction of pt's frame — the raster
// a client that decoded it holds. intra, when non-nil, is the frame's
// known encoded bytes; otherwise they are peeked from the store, never
// rendered: a reference the store no longer holds (and the pano cache
// never did) returns nil and the caller falls back to intra coding. The
// raster is owned by the pano cache; callers must not mutate or release
// it.
func (s *Server) reconFor(pt geom.GridPoint, intra []byte) *img.Gray {
	if g, ok := s.panos.get(pt); ok {
		return g
	}
	if intra == nil {
		data, ok := s.store.peek(pt)
		if !ok {
			return nil
		}
		intra = data
	}
	g, err := codec.Decode(intra)
	if err != nil {
		return nil
	}
	s.panos.put(pt, g)
	return g
}

// defaultPanoCacheCap bounds the decoded-frame cache. At the default
// 256x128 resolution this is 2 MB worst case; entries are dropped LRU.
const defaultPanoCacheCap = 64

// panoCache is a small LRU map, keyed by grid point and shared by all
// sessions, of frames' codec reconstructions: what a client that decoded
// the frame holds, the rasters the delta path encodes residuals between.
// Entries are immutable once inserted and never returned to the raster
// pools — a session may still be reading an entry after its eviction, so
// evicted rasters are left to the garbage collector.
type panoCache struct {
	mu      sync.Mutex
	cap     int
	entries lru.Map[geom.GridPoint, *img.Gray]
}

func newPanoCache(cap int) *panoCache { return &panoCache{cap: cap} }

// get returns the cached reconstruction of pt. The raster is shared and
// must not be mutated or released.
func (p *panoCache) get(pt geom.GridPoint) (*img.Gray, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.entries.Get(pt)
}

// put inserts the reconstruction of pt's frame. The cache takes ownership;
// the caller must not release it afterwards.
func (p *panoCache) put(pt geom.GridPoint, recon *img.Gray) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.entries.Put(pt, recon)
	for p.entries.Len() > p.cap {
		p.entries.RemoveOldest()
	}
}

package server

import (
	"sync"

	"coterie/internal/codec"
	"coterie/internal/cutoff"
	"coterie/internal/geom"
	"coterie/internal/img"
	"coterie/internal/lru"
	"coterie/internal/transport"
)

// This file is the server side of the similarity-aware frame path: delta
// coding against frames the client provably holds (stop re-sending what
// the client already has). It exploits the paper's core observation that
// nearby frames are highly similar, and chooses keyframes by what they
// cost, as x264 (the paper's encoder) does:
//
//   - Which reference: the nearest held point in the same cutoff leaf
//     within leaf.Radius/parallaxGateDiv. A far-BE object is at least
//     Radius away, so a move of R/10 shifts it by at most 0.1 rad (about
//     4 px at 256 px across 2π). The gate only stops delta encodes that
//     cannot pay; it is not a quality promise (the stale rung keeps
//     DistThresh for that), and no threshold of the cache is read here.
//   - When to send it: only when deltaPays, 5·len(delta) < 3·len(intra).
//     Otherwise the reply is the intra frame, which becomes a reference,
//     so the next requests find a close one. This is x264's scenecut test
//     at its default of 40 with full bias (pcost ≥ (1−0.4)·icost ⇒
//     I-frame), without its GOP-length ramp.
//
// Reference identity is the grid point: a frame's bytes are a pure
// function of its point, so the point names exactly the bytes the client
// decoded, however often the store evicted and re-rendered it since. Which
// replies become references, and for how long, is transport.HeldRefs' one
// rule, which the live client applies to the same replies.

// sessionRefs is a TCP session's holdings: each held point with its cutoff
// leaf, looked up once when the point is held (nil: off the map).
type sessionRefs = transport.HeldRefs[*cutoff.Region]

// parallaxGateDiv sets the reference gate: a held point qualifies within
// leaf.Radius/parallaxGateDiv of the requested one.
const parallaxGateDiv = 10

// deltaPays is the keyframe rule: a delta is served only when it costs
// under 3/5 of the intra frame (x264's default scenecut, 40).
func deltaPays(delta, intra []byte) bool { return 5*len(delta) < 3*len(intra) }

// hold makes pt a reference of the session, with its leaf (looked up only
// for a point not yet held).
func (s *Server) hold(refs *sessionRefs, pt geom.GridPoint) {
	if _, ok := refs.Get(pt); !ok {
		refs.Hold(pt, s.env.Map.LeafAt(s.env.Game.Scene.Grid.Pos(pt)))
	}
}

// nearestRef picks the session's reference for pt: pt itself when held,
// else the nearest held point of pt's leaf within the parallax gate, by
// squared grid distance with ties broken on the smaller (J, I), so the
// choice does not depend on the order the holdings are visited in.
func (s *Server) nearestRef(pt geom.GridPoint, refs *sessionRefs) (geom.GridPoint, bool) {
	if refs.Len() == 0 {
		return geom.GridPoint{}, false
	}
	if leaf, ok := refs.Get(pt); ok {
		return pt, leaf != nil
	}
	grid := s.env.Game.Scene.Grid
	leaf := s.env.Map.LeafAt(grid.Pos(pt))
	if leaf == nil {
		return geom.GridPoint{}, false
	}
	gate := leaf.Radius / parallaxGateDiv / grid.Step
	maxSq := int(gate * gate) // d² ≤ gate² ⇔ d² ≤ ⌊gate²⌋ for integer d²
	var refPt geom.GridPoint
	best := -1
	refs.Each(func(hp geom.GridPoint, hl *cutoff.Region) {
		if hl != leaf {
			return
		}
		di, dj := hp.I-pt.I, hp.J-pt.J
		d := di*di + dj*dj
		if d > maxSq || best >= 0 && d > best {
			return
		}
		if d == best && (hp.J > refPt.J || hp.J == refPt.J && hp.I > refPt.I) {
			return
		}
		refPt, best = hp, d
	})
	return refPt, best >= 0
}

// deltaFor tries to produce a delta encoding of pt's frame against the
// session's reference (nearestRef). It reports ok=false when no reference
// qualifies, the reference bytes are no longer reconstructible, or the
// delta does not pay (deltaPays); the last is counted as a keyframe
// refresh. A fresh delta is cached on the store entry whether it pays or
// not: it answers the next session's same question without a decode.
func (s *Server) deltaFor(pt geom.GridPoint, intra []byte, refs *sessionRefs) ([]byte, geom.GridPoint, bool) {
	refPt, ok := s.nearestRef(pt, refs)
	if !ok {
		return nil, geom.GridPoint{}, false
	}
	d, ok := s.store.delta(pt, refPt)
	if !ok {
		cur := s.reconFor(pt, intra)
		if cur == nil {
			return nil, geom.GridPoint{}, false
		}
		refRecon := s.reconFor(refPt, nil)
		if refRecon == nil {
			return nil, geom.GridPoint{}, false
		}
		if d = codec.DeltaEncode(cur, refRecon, s.env.CRF); d == nil {
			return nil, geom.GridPoint{}, false
		}
		s.store.putDelta(pt, refPt, d)
	}
	if !deltaPays(d, intra) {
		s.obs.keyframeRefreshes.Inc()
		return nil, geom.GridPoint{}, false
	}
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

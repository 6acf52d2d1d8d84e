// Package prefetch implements the Coterie client's far-BE frame
// prefetcher (§5.2). Each tick it predicts the grid points the player is
// about to need from the current velocity, checks the frame cache first,
// and requests only the frames the cache cannot cover. Because a cached
// far-BE frame is reusable within the leaf's distance threshold, most
// predicted points hit the cache and the prefetch frequency drops by the
// paper's 5.2x-8.6x (Table 6); the surviving requests also gain a large
// scheduling window (the client only needs the frame before the player
// arrives), so no inter-client coordination is required.
package prefetch

import (
	"math"

	"coterie/internal/cache"
	"coterie/internal/geom"
	"coterie/internal/obs"
)

// Meta computes the cache lookup metadata of a grid point: its leaf
// region, near-BE object-set signature, and leaf distance threshold. It is
// built from the offline cutoff map (see core.Env.Meta).
type Meta func(pt geom.GridPoint) (leaf int, sig uint64, thresh float64)

// Source delivers encoded far-BE frames, either over the simulated WiFi or
// a real TCP connection. done is invoked when the payload arrives, with
// the request start and completion times in ms.
type Source interface {
	Fetch(player int, pt geom.GridPoint, done func(data []byte, size int, startMs, endMs float64))
}

// Config tunes the prefetcher.
type Config struct {
	// LookaheadSec is how far ahead along the velocity vector the
	// prefetcher aims. The cache-enabled reuse window means this can be
	// generous without tight deadlines (§5.2).
	LookaheadSec float64
	// NeighborHops adds the neighbours of the predicted point as
	// candidates (the paper prefetches "the neighbors of the next grid
	// point").
	NeighborHops int
}

// DefaultConfig matches the testbed behaviour.
func DefaultConfig() Config {
	return Config{LookaheadSec: 0.4, NeighborHops: 1}
}

// maxInflight bounds concurrent fetches per client.
const maxInflight = 2

// Stats counts prefetcher activity.
type Stats struct {
	Issued       int64 // fetches sent to the server
	SkippedCache int64 // candidates already covered by the cache
	SkippedBusy  int64 // candidates deferred because of inflight fetches
	Delivered    int64 // fetches completed and inserted
}

// Prefetcher runs the per-tick planning for one client.
type Prefetcher struct {
	Grid   geom.Grid
	Meta   Meta
	Cache  *cache.Cache
	Source Source
	Player int
	Cfg    Config

	inflight map[geom.GridPoint]bool
	waiters  map[geom.GridPoint][]Waiter
	scratch  []geom.GridPoint
	stats    Stats
	obs      instruments
}

// instruments mirror Stats into a metrics registry, plus the per-fetch
// RTT histogram the paper's latency breakdown needs (Tables 1/5).
type instruments struct {
	issued, skippedCache   *obs.Counter
	skippedBusy, delivered *obs.Counter
	bytesFetched           *obs.Counter
	inflightGauge          *obs.Gauge
	fetchRTT               *obs.Histogram
}

// Instrument mirrors the prefetcher's counters into a registry under the
// "prefetch." namespace. Instrument(nil) is a no-op; prefetchers sharing
// one registry aggregate into the same instruments.
func (p *Prefetcher) Instrument(r *obs.Registry) {
	if r == nil {
		return
	}
	p.obs = instruments{
		issued:        r.Counter("prefetch.issued"),
		skippedCache:  r.Counter("prefetch.skipped_cache"),
		skippedBusy:   r.Counter("prefetch.skipped_busy"),
		delivered:     r.Counter("prefetch.delivered"),
		bytesFetched:  r.Counter("prefetch.bytes_fetched"),
		inflightGauge: r.Gauge("prefetch.inflight"),
		fetchRTT:      r.Histogram("prefetch.fetch_rtt_ms"),
	}
}

// Waiter is notified when a demanded frame becomes available: its size and
// the time (ms) it arrived.
type Waiter func(size int, readyMs float64)

// New creates a prefetcher bound to one client's cache and frame source.
func New(grid geom.Grid, meta Meta, c *cache.Cache, src Source, player int, cfg Config) *Prefetcher {
	return &Prefetcher{
		Grid:     grid,
		Meta:     meta,
		Cache:    c,
		Source:   src,
		Player:   player,
		Cfg:      cfg,
		inflight: make(map[geom.GridPoint]bool),
		waiters:  make(map[geom.GridPoint][]Waiter),
	}
}

// Request is one prefetch request for an upcoming grid point (§5.2):
// "each far BE frame prefetching request is first sent to the frame cache,
// and is only sent out to the server if the cache cannot find a similar
// frame". The hit/miss statistics of this stream are the paper's cache hit
// ratio (Tables 5-6). Call it once per frame tick with the predicted next
// grid point.
func (p *Prefetcher) Request(pt geom.GridPoint) {
	p.RequestTracked(pt, nil)
}

// RequestTracked is Request with completion tracking for Eq. 2: when the
// request misses the cache, notify fires when the (new or already
// in-flight) transfer lands, and RequestTracked returns true — the frame's
// T_prefetch_next term. A cache hit returns false: the prefetch task takes
// no time this frame.
func (p *Prefetcher) RequestTracked(pt geom.GridPoint, notify Waiter) bool {
	req := p.request(pt)
	if _, ok := p.Cache.Lookup(req); ok {
		return false
	}
	wait := func(target geom.GridPoint) {
		if notify != nil {
			p.waiters[target] = append(p.waiters[target], notify)
		}
	}
	if p.inflight[pt] {
		wait(pt)
		return true
	}
	if cover, ok := p.inflightCovering(req); ok {
		wait(cover)
		return true
	}
	wait(pt)
	p.fetch(pt, req)
	return true
}

// Ensure makes the frame for the grid point needed for display *now*
// available (§5.1 task 2 reads it from the cache): a cached frame notifies
// immediately with nowMs; an in-flight fetch attaches a waiter; otherwise
// an emergency fetch is issued. Ensure does not touch the cache hit/miss
// statistics — in the paper's pipeline the display path reads a frame the
// prefetcher already ensured, so only prefetch requests count.
func (p *Prefetcher) Ensure(pt geom.GridPoint, nowMs float64, notify Waiter) {
	req := p.request(pt)
	if e, ok := p.Cache.Peek(req); ok {
		notify(e.Size, nowMs)
		return
	}
	if p.inflight[pt] {
		p.waiters[pt] = append(p.waiters[pt], notify)
		return
	}
	if cover, ok := p.inflightCovering(req); ok {
		p.waiters[cover] = append(p.waiters[cover], notify)
		return
	}
	p.waiters[pt] = append(p.waiters[pt], notify)
	p.fetch(pt, req)
}

// inflightCovering returns the in-flight point whose frame will satisfy
// the request once cached, preferring the closest (deterministically, so
// simulation runs are reproducible despite map iteration order).
func (p *Prefetcher) inflightCovering(req cache.Request) (geom.GridPoint, bool) {
	var best geom.GridPoint
	bestD := math.Inf(1)
	found := false
	for pt := range p.inflight {
		d := p.Grid.Pos(pt).Dist(req.Pos)
		if d > req.DistThresh {
			continue
		}
		leaf, sig, _ := p.Meta(pt)
		if leaf != req.LeafID || sig != req.NearSig {
			continue
		}
		if d < bestD || (d == bestD && lessPoint(pt, best)) {
			best, bestD, found = pt, d, true
		}
	}
	return best, found
}

func lessPoint(a, b geom.GridPoint) bool {
	if a.J != b.J {
		return a.J < b.J
	}
	return a.I < b.I
}

// Stats returns a copy of the counters.
func (p *Prefetcher) Stats() Stats { return p.stats }

// Inflight returns the number of outstanding fetches.
func (p *Prefetcher) Inflight() int { return len(p.inflight) }

// request builds the cache request for a grid point.
func (p *Prefetcher) request(pt geom.GridPoint) cache.Request {
	leaf, sig, thresh := p.Meta(pt)
	return cache.Request{
		Point:      pt,
		Pos:        p.Grid.Pos(pt),
		LeafID:     leaf,
		NearSig:    sig,
		DistThresh: thresh,
		Player:     p.Player,
	}
}

// Tick plans prefetching for the current position and velocity (m/s). It
// issues fetches for predicted points the cache cannot serve, up to the
// inflight budget.
func (p *Prefetcher) Tick(pos, vel geom.Vec2) {
	target := p.Grid.Snap(geom.V2(
		pos.X+vel.X*p.Cfg.LookaheadSec,
		pos.Z+vel.Z*p.Cfg.LookaheadSec,
	))
	p.scratch = p.scratch[:0]
	p.scratch = append(p.scratch, target)
	if p.Cfg.NeighborHops > 0 {
		p.scratch = p.Grid.Neighbors(p.scratch, target, p.Cfg.NeighborHops)
	}
	for _, cand := range p.scratch {
		if p.inflight[cand] {
			continue
		}
		if len(p.inflight) >= maxInflight {
			p.stats.SkippedBusy++
			p.obs.skippedBusy.Inc()
			return
		}
		req := p.request(cand)
		if _, ok := p.Cache.Peek(req); ok {
			p.stats.SkippedCache++
			p.obs.skippedCache.Inc()
			continue
		}
		if p.coveredByInflight(req) {
			continue
		}
		p.fetch(cand, req)
	}
}

// coveredByInflight reports whether an outstanding fetch will satisfy the
// request once it lands (within the distance threshold, so the cache would
// serve it).
func (p *Prefetcher) coveredByInflight(req cache.Request) bool {
	_, ok := p.inflightCovering(req)
	return ok
}

// Fetch forces a fetch of one grid point (used for cold starts).
func (p *Prefetcher) Fetch(pt geom.GridPoint) {
	if p.inflight[pt] {
		return
	}
	p.fetch(pt, p.request(pt))
}

func (p *Prefetcher) fetch(pt geom.GridPoint, req cache.Request) {
	p.inflight[pt] = true
	p.stats.Issued++
	p.obs.issued.Inc()
	p.obs.inflightGauge.Set(int64(len(p.inflight)))
	p.Source.Fetch(p.Player, pt, func(data []byte, size int, startMs, endMs float64) {
		delete(p.inflight, pt)
		p.stats.Delivered++
		p.obs.delivered.Inc()
		p.obs.bytesFetched.Add(int64(size))
		p.obs.inflightGauge.Set(int64(len(p.inflight)))
		p.obs.fetchRTT.Observe(endMs - startMs)
		p.Cache.Insert(cache.Entry{
			Point:   pt,
			Pos:     req.Pos,
			LeafID:  req.LeafID,
			NearSig: req.NearSig,
			Data:    data,
			Size:    size,
			Owner:   p.Player,
		})
		if ws := p.waiters[pt]; len(ws) > 0 {
			delete(p.waiters, pt)
			for _, w := range ws {
				w(size, endMs)
			}
		}
	})
}

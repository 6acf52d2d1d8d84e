// Package cutoff implements the paper's adaptive cutoff scheme (§4.3): the
// offline preprocessing step that recursively partitions a game's virtual
// world into a quadtree of leaf regions, each with the largest near-BE /
// far-BE cutoff radius whose near-BE render time satisfies Constraint 1
// (RT_FI + RT_NearBE < 16.7 ms).
//
// Customising a radius per grid point is computationally infeasible (a
// world can have hundreds of millions of grid points, Table 3); a single
// global radius wastes similarity in sparse areas. The adaptive scheme
// exploits the observation that object density changes gradually and tends
// to be uniform within a small region: it samples K random locations per
// region, computes each location's maximal radius, and splits the region
// into four quadrants when the radii disagree. For the paper's largest
// world (CTS, 268M grid points) this reduces the cutoff calculations to a
// few hundred leaf regions.
package cutoff

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"time"

	"coterie/internal/geom"
	"coterie/internal/par"
	"coterie/internal/world"
)

// RenderTimer estimates the on-device render time in milliseconds for a
// near BE containing the given triangle count. Use
// device.Profile.NearBERenderMs. It must be non-decreasing in tris: Compute
// turns the budget into the largest triangle count that fits, once, and
// that count answers "does this near BE fit?" exactly only for a timer
// that never gets faster with more triangles.
type RenderTimer func(tris int) float64

// Params controls the partitioning.
type Params struct {
	// K is the number of random locations sampled per region. The paper
	// determines K=10 experimentally (Fig 6): it bounds Constraint-1
	// violations below 0.25%.
	K int
	// BudgetMs is the near-BE render-time budget from Constraint 1
	// (16.7 ms vsync minus the 4 ms FI bound, Eq. 1).
	BudgetMs float64
	// Tolerance is the allowed max/min ratio of sampled radii within a
	// region before it is split.
	Tolerance float64
	// MinRegion stops subdivision when a child region side would fall
	// below this size (metres). Zero selects an automatic value scaled to
	// the world (longer dimension / 64, clamped to [1, 20] m): adapting
	// below that granularity buys nothing because the radii the scheme
	// produces are themselves metres wide.
	MinRegion float64
	// Seed makes sampling deterministic.
	Seed int64
}

// DefaultParams returns the paper's configuration.
func DefaultParams() Params {
	return Params{
		K:         10,
		BudgetMs:  12.7,
		Tolerance: 1.30,
		MinRegion: 0, // auto
		Seed:      1,
	}
}

const (
	// absTolerance is an absolute radius spread (metres) below which a
	// region counts as uniform regardless of the Tolerance ratio.
	absTolerance = 0.5
	// radiusLo and radiusHi bound the cutoff search (metres).
	radiusLo, radiusHi float64 = 0.5, 200
	// maxDepth is a safety bound on quadtree depth.
	maxDepth = 10
)

// Region is a quadtree leaf: a rectangle of the world sharing one cutoff
// radius and one cache distance threshold.
type Region struct {
	ID     int
	Bounds geom.Rect
	Depth  int
	// Radius is the near/far BE cutoff radius for every location in the
	// region: the minimum of the K sampled maximal radii (§4.3).
	Radius float64
	// DistThresh is the cache lookup distance threshold derived for this
	// region (§5.3); zero until thresholds are derived.
	DistThresh float64
	// TriDensity is the mean sampled object density (triangles per square
	// metre), recorded for the Fig 8 density/radius correlation.
	TriDensity float64
}

// node is an internal quadtree node.
type node struct {
	bounds   geom.Rect
	children *[4]node // nil at leaves
	leaf     int32    // index into Map.Regions when children == nil
}

// Stats summarises a partitioning run (the Table 3 columns).
type Stats struct {
	LeafCount   int
	DepthAvg    float64
	DepthMax    int
	CutoffCalcs int // number of per-location maximal-radius computations
	ProcTime    time.Duration
}

// Map is the offline preprocessing output for one game world.
type Map struct {
	Scene   *world.Scene
	Params  Params
	Regions []Region
	Stats   Stats
	root    node
}

// Compute runs the adaptive cutoff scheme over the scene.
func Compute(scene *world.Scene, rt RenderTimer, p Params) (*Map, error) {
	if p.K < 1 {
		return nil, fmt.Errorf("cutoff: K must be >= 1, got %d", p.K)
	}
	if p.BudgetMs <= 0 {
		return nil, fmt.Errorf("cutoff: invalid params %+v", p)
	}
	if p.MinRegion <= 0 {
		longer := math.Max(scene.Bounds.Width(), scene.Bounds.Depth())
		p.MinRegion = math.Min(math.Max(longer/64, 1), 20)
	}
	start := time.Now()
	m := &Map{Scene: scene, Params: p}
	b := builder{
		m:     m,
		limit: nearBELimit(rt, p.BudgetMs, scene.TotalTriangles()),
		rng:   rand.New(rand.NewSource(p.Seed)),
	}
	m.root = b.partition(scene.Bounds, 0)
	m.Stats.LeafCount = len(m.Regions)
	var depthSum int
	for i := range m.Regions {
		d := m.Regions[i].Depth
		depthSum += d
		if d > m.Stats.DepthMax {
			m.Stats.DepthMax = d
		}
	}
	if len(m.Regions) > 0 {
		m.Stats.DepthAvg = float64(depthSum) / float64(len(m.Regions))
	}
	m.Stats.CutoffCalcs = b.calcs
	m.Stats.ProcTime = time.Since(start)
	return m, nil
}

// nearBELimit returns the largest triangle count in [0, total] whose near
// BE renders within budgetMs, or -1 when none does. No disc holds more than
// the whole scene's total, so for a non-decreasing rt a disc fits the
// budget exactly when its count is at most this limit.
func nearBELimit(rt RenderTimer, budgetMs float64, total int) int {
	return sort.Search(total+1, func(n int) bool { return rt(n) > budgetMs }) - 1
}

type builder struct {
	m       *Map
	limit   int // most triangles a near BE may hold (nearBELimit)
	rng     *rand.Rand
	queries []*world.Query // one per worker (par.ForWorker)
	calcs   int
}

// partition implements the recursive procedure of §4.3: sample K random
// locations, compute each one's maximal radius, stop if they agree, split
// into four quadrants otherwise.
//
// The K samples are independent, so their radius searches and density
// probes fan out across workers. Determinism: all rng draws happen in the
// sequential prepass below (the compute stage draws nothing), results land
// in index-addressed slices, and the reductions below run in index order —
// so the output is byte-identical for any worker count, including the
// sequential seed implementation's.
func (b *builder) partition(region geom.Rect, depth int) node {
	k := b.m.Params.K
	locs := make([]geom.Vec2, k)
	for i := range locs {
		locs[i] = geom.V2(
			region.MinX+b.rng.Float64()*region.Width(),
			region.MinZ+b.rng.Float64()*region.Depth(),
		)
	}
	radii := make([]float64, k)
	densities := make([]float64, k)
	par.ForWorker(k, &b.queries, b.m.Scene.NewQuery, func(q *world.Query, i int) {
		radii[i] = b.maxRadius(q, locs[i])
		const densityProbe = 6.0
		tris := b.m.Scene.TrianglesWithin(q, locs[i], densityProbe)
		densities[i] = float64(tris) / (math.Pi * densityProbe * densityProbe)
	})
	b.calcs += k
	var densitySum float64
	minR, maxR := math.Inf(1), 0.0
	for i := range radii {
		r := radii[i]
		if r < minR {
			minR = r
		}
		if r > maxR {
			maxR = r
		}
		densitySum += densities[i]
	}

	p := b.m.Params
	uniform := maxR-minR <= absTolerance || maxR <= minR*p.Tolerance
	canSplit := depth < maxDepth && region.Width()/2 >= p.MinRegion && region.Depth()/2 >= p.MinRegion
	if uniform || !canSplit {
		// Leaf: record the minimal radius so Constraint 1 holds for the
		// whole region.
		id := len(b.m.Regions)
		b.m.Regions = append(b.m.Regions, Region{
			ID:         id,
			Bounds:     region,
			Depth:      depth,
			Radius:     minR,
			TriDensity: densitySum / float64(p.K),
		})
		return node{bounds: region, leaf: int32(id)}
	}
	var children [4]node
	for i, quad := range region.Quadrants() {
		children[i] = b.partition(quad, depth+1)
	}
	return node{bounds: region, children: &children, leaf: -1}
}

// maxRadius binary-searches the largest cutoff radius at loc whose near-BE
// render time stays within the budget. Triangle count is monotone in the
// radius, so bisection applies. A radius fits when its disc holds at most
// b.limit triangles; the count stops as soon as it passes the limit, so a
// step on a wide disc costs what the near BE's own objects cost, not the
// whole disc. q is the calling worker's query scratch.
func (b *builder) maxRadius(q *world.Query, loc geom.Vec2) float64 {
	fits := func(r float64) bool {
		return !b.m.Scene.TrianglesWithinExceeds(q, loc, r, b.limit)
	}
	if !fits(radiusLo) {
		return radiusLo
	}
	if fits(radiusHi) {
		return radiusHi
	}
	lo, hi := radiusLo, radiusHi
	for i := 0; i < 24 && hi-lo > 0.05; i++ {
		mid := (lo + hi) / 2
		if fits(mid) {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo
}

// LeafAt returns the leaf region containing the ground position, or nil if
// the position lies outside the world.
func (m *Map) LeafAt(p geom.Vec2) *Region {
	if !m.Scene.Bounds.ContainsClosed(p) {
		return nil
	}
	// Clamp max-edge points into the half-open quadrant system.
	p = geom.V2(
		math.Min(p.X, m.Scene.Bounds.MaxX-1e-9),
		math.Min(p.Z, m.Scene.Bounds.MaxZ-1e-9),
	)
	n := &m.root
	for n.children != nil {
		found := false
		for i := range n.children {
			if n.children[i].bounds.Contains(p) {
				n = &n.children[i]
				found = true
				break
			}
		}
		if !found {
			return nil // numerically on a seam; treat as outside
		}
	}
	return &m.Regions[n.leaf]
}

// RadiusAt returns the cutoff radius for a ground position (0 outside the
// world).
func (m *Map) RadiusAt(p geom.Vec2) float64 {
	if r := m.LeafAt(p); r != nil {
		return r.Radius
	}
	return 0
}

// Validate checks the structural invariants of the partition: leaves tile
// the world, radii are within bounds, and every leaf is reachable by
// LeafAt from its own centre.
func (m *Map) Validate() error {
	var area float64
	for i := range m.Regions {
		r := &m.Regions[i]
		area += r.Bounds.Area()
		if r.Radius < radiusLo-1e-9 || r.Radius > radiusHi+1e-9 {
			return fmt.Errorf("cutoff: region %d radius %v out of bounds", r.ID, r.Radius)
		}
		if got := m.LeafAt(r.Bounds.Center()); got == nil || got.ID != r.ID {
			return fmt.Errorf("cutoff: region %d not found at its own centre", r.ID)
		}
	}
	if want := m.Scene.Bounds.Area(); math.Abs(area-want) > want*1e-9 {
		return fmt.Errorf("cutoff: leaves cover %v of %v world area", area, want)
	}
	return nil
}

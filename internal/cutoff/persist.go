package cutoff

import (
	"encoding/json"
	"fmt"
	"io"
	"math"

	"coterie/internal/geom"
	"coterie/internal/world"
)

// Offline preprocessing output is computed once per app (the paper does it
// at installation time, §4.3) and shipped to clients; this file
// round-trips a Map through JSON so cmd/cutoffgen can write it and the
// server/client load it instead of recomputing.

// mapFile is the serialised form.
type mapFile struct {
	Format  string       `json:"format"`
	Scene   string       `json:"scene"`
	Params  Params       `json:"params"`
	Stats   statsFile    `json:"stats"`
	Regions []regionFile `json:"regions"`
}

type statsFile struct {
	LeafCount   int     `json:"leaf_count"`
	DepthAvg    float64 `json:"depth_avg"`
	DepthMax    int     `json:"depth_max"`
	CutoffCalcs int     `json:"cutoff_calcs"`
	ProcTimeMs  float64 `json:"proc_time_ms"`
}

type regionFile struct {
	Bounds     [4]float64 `json:"bounds"` // minX, minZ, maxX, maxZ
	Depth      int        `json:"depth"`
	Radius     float64    `json:"radius"`
	DistThresh float64    `json:"dist_thresh"`
	TriDensity float64    `json:"tri_density"`
}

const mapFormat = "coterie-cutoff-map/1"

// Save writes the map to w as JSON.
func (m *Map) Save(w io.Writer) error {
	f := mapFile{
		Format: mapFormat,
		Scene:  m.Scene.Name,
		Params: m.Params,
		Stats: statsFile{
			LeafCount:   m.Stats.LeafCount,
			DepthAvg:    m.Stats.DepthAvg,
			DepthMax:    m.Stats.DepthMax,
			CutoffCalcs: m.Stats.CutoffCalcs,
			ProcTimeMs:  float64(m.Stats.ProcTime.Milliseconds()),
		},
	}
	for _, r := range m.Regions {
		f.Regions = append(f.Regions, regionFile{
			Bounds:     [4]float64{r.Bounds.MinX, r.Bounds.MinZ, r.Bounds.MaxX, r.Bounds.MaxZ},
			Depth:      r.Depth,
			Radius:     r.Radius,
			DistThresh: r.DistThresh,
			TriDensity: r.TriDensity,
		})
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(f)
}

// Load reads a map saved by Save and attaches it to the scene it was
// computed for. The scene name must match, and the loaded leaves must tile
// the scene's bounds; the quadtree is reconstructed from the leaf
// rectangles.
func Load(r io.Reader, scene *world.Scene) (*Map, error) {
	var f mapFile
	if err := json.NewDecoder(r).Decode(&f); err != nil {
		return nil, fmt.Errorf("cutoff: decoding map: %w", err)
	}
	if f.Format != mapFormat {
		return nil, fmt.Errorf("cutoff: unknown format %q", f.Format)
	}
	if f.Scene != scene.Name {
		return nil, fmt.Errorf("cutoff: map is for scene %q, not %q", f.Scene, scene.Name)
	}
	m := &Map{Scene: scene, Params: f.Params}
	m.Stats.LeafCount = f.Stats.LeafCount
	m.Stats.DepthAvg = f.Stats.DepthAvg
	m.Stats.DepthMax = f.Stats.DepthMax
	m.Stats.CutoffCalcs = f.Stats.CutoffCalcs
	for i, rf := range f.Regions {
		m.Regions = append(m.Regions, Region{
			ID:         i,
			Bounds:     geom.Rect{MinX: rf.Bounds[0], MinZ: rf.Bounds[1], MaxX: rf.Bounds[2], MaxZ: rf.Bounds[3]},
			Depth:      rf.Depth,
			Radius:     rf.Radius,
			DistThresh: rf.DistThresh,
			TriDensity: rf.TriDensity,
		})
	}
	root, err := rebuildTree(scene.Bounds, m.Regions)
	if err != nil {
		return nil, err
	}
	m.root = *root
	if err := m.Validate(); err != nil {
		return nil, fmt.Errorf("cutoff: loaded map invalid: %w", err)
	}
	return m, nil
}

// rebuildTree reconstructs the quadtree from leaf rectangles: a node whose
// bounds exactly match a single covering leaf is that leaf; otherwise the
// node splits into quadrants. A well-formed map makes exactly one leaf node
// per region. A region that is not a quadtree cell — a strip a millionth
// of the width, say — splits every node along its edge down to the depth
// cap, twice as many nodes per level, so the rebuild fails as soon as it
// has made more leaf nodes than the file has regions: the tree it builds
// is bounded by the file's size.
func rebuildTree(bounds geom.Rect, regions []Region) (*node, error) {
	leaves := 0
	leaf := func(b geom.Rect, r *Region) (*node, error) {
		if leaves++; leaves > len(regions) {
			return nil, fmt.Errorf("cutoff: %d regions do not tile a quadtree (%+v is a leaf too many)", len(regions), b)
		}
		return &node{bounds: b, leaf: int32(r.ID)}, nil
	}
	// Index regions by containment of the node centre for recursion.
	var build func(b geom.Rect, depth int) (*node, error)
	build = func(b geom.Rect, depth int) (*node, error) {
		if depth > 24 {
			return nil, fmt.Errorf("cutoff: runaway recursion rebuilding tree at %+v", b)
		}
		c := b.Center()
		var covering *Region
		for i := range regions {
			r := &regions[i]
			if r.Bounds.Contains(c) || (r.Bounds.ContainsClosed(c) && r.Bounds.MaxX >= bounds.MaxX && r.Bounds.MaxZ >= bounds.MaxZ) {
				covering = r
				break
			}
		}
		if covering == nil {
			return nil, fmt.Errorf("cutoff: no region covers %v", c)
		}
		if sameRect(covering.Bounds, b) {
			return leaf(b, covering)
		}
		if !rectContains(covering.Bounds, b) {
			// The covering leaf is smaller than this node: split.
			var children [4]node
			for i, quad := range b.Quadrants() {
				ch, err := build(quad, depth+1)
				if err != nil {
					return nil, err
				}
				children[i] = *ch
			}
			return &node{bounds: b, children: &children, leaf: -1}, nil
		}
		// The leaf is larger than the node (should not happen for a
		// well-formed quadtree, but tolerate it).
		return leaf(b, covering)
	}
	return build(bounds, 0)
}

func sameRect(a, b geom.Rect) bool {
	const eps = 1e-9
	return math.Abs(a.MinX-b.MinX) < eps && math.Abs(a.MinZ-b.MinZ) < eps &&
		math.Abs(a.MaxX-b.MaxX) < eps && math.Abs(a.MaxZ-b.MaxZ) < eps
}

func rectContains(outer, inner geom.Rect) bool {
	const eps = 1e-9
	return outer.MinX <= inner.MinX+eps && outer.MinZ <= inner.MinZ+eps &&
		outer.MaxX+eps >= inner.MaxX && outer.MaxZ+eps >= inner.MaxZ
}

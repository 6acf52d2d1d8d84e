package cutoff

import (
	"bufio"
	"bytes"
	"embed"
	"encoding/binary"
	"errors"
	"fmt"
	"hash"
	"hash/fnv"
	"io/fs"
	"math"
	"strconv"
	"strings"
	"time"

	"coterie/internal/geom"
	"coterie/internal/render"
	"coterie/internal/world"
)

// The offline step's output (§4.3, §6): for each catalog game, the map
// Compute builds at DefaultParams, with every leaf's DistThresh as
// CalibrateThresholds derives it at the default resolution. One text file
// per game, thresholds/<game>.txt: '#' comment lines, two header lines
// naming what the table was computed from (tableKey), then one line per
// leaf in region order: its depth, then Radius, TriDensity and DistThresh
// as hex floats. `make thresholds` (TestDefaultMapsUnchanged -update)
// rewrites them.
//
//go:embed thresholds/*.txt
var tables embed.FS

// DefaultSampleLeaves is the number of leaves whose thresholds are derived
// exactly, the rest extrapolated, unless a caller of CalibrateThresholds
// chooses another; the stored tables were derived with it.
const DefaultSampleLeaves = 3

// tableKey is what a stored table was computed from. Its map half is all
// Compute reads: the scene (sceneDigest), the resolved Params and the
// near-BE triangle limit Compute derives from the render timer. Its
// thresholds half is all CalibrateThresholds reads: the same scene (the
// renderer reads object fields the map does not), the map (its digest and
// leaf count, thresholds unset), the renderer's resolution, sampleLeaves
// and the ThresholdConfig.
type tableKey struct {
	scene     uint64
	limit     int
	params    Params
	digest    uint64
	leaves    int
	w, h      int
	calibrate int
	samples   int
	seed      int64
}

// mapKey and threshKey are the halves Load and LoadThresholds compare.
func (k tableKey) mapKey() tableKey {
	return tableKey{scene: k.scene, limit: k.limit, params: k.params}
}

func (k tableKey) threshKey() tableKey {
	k.limit, k.params = 0, Params{}
	return k
}

// header writes a tableKey as the table's two header lines.
func (k tableKey) header() string {
	p := k.params
	return fmt.Sprintf("scene %#x limit %d k %d budget %s tolerance %s minregion %s seed %d\n"+
		"digest %#x leaves %d render %dx%d calibrate %d samples %d seed %d",
		k.scene, k.limit, p.K, hexFloat(p.BudgetMs), hexFloat(p.Tolerance), hexFloat(p.MinRegion), p.Seed,
		k.digest, k.leaves, k.w, k.h, k.calibrate, k.samples, k.seed)
}

// hexFloat writes f exactly, as the stored tables do.
func hexFloat(f float64) string { return strconv.FormatFloat(f, 'x', -1, 64) }

// leafRow is one stored leaf.
type leafRow struct {
	depth                   int
	radius, density, thresh float64
}

// Load returns the game's stored map when its table was computed from this
// scene, these parameters and this timer's near-BE triangle limit, that is
// when it holds what Compute(scene, rt, p) returns; its thresholds are
// unset, as Compute leaves them. It returns nil when the game has no table
// or the table another key (other Params, a changed scene or timer).
// Loading rebuilds the quadtree from the leaves' depths as Compute splits
// (Rect.Quadrants); the result must hash to the table's map digest and pass
// Validate, and a table that fails either or is malformed is an error.
// Stats.ProcTime of a loaded map is its load time.
func Load(game string, scene *world.Scene, rt RenderTimer, p Params) (*Map, error) {
	start := time.Now()
	data, err := tableData(game)
	if data == nil {
		return nil, err
	}
	p = p.resolved(scene)
	want := tableKey{scene: sceneDigest(scene), limit: nearBELimit(rt, p.BudgetMs, scene.TotalTriangles()), params: p}
	m, err := loadMap(data, scene, want)
	if err != nil {
		return nil, fmt.Errorf("cutoff: thresholds/%s.txt: %w", game, err)
	}
	if m != nil {
		m.Stats.ProcTime = time.Since(start)
	}
	return m, nil
}

// LoadThresholds fills every leaf's DistThresh from the game's stored table
// when that table was derived from this map with these arguments, that is
// when it holds what CalibrateThresholds(m, render.New(m.Scene, cfg),
// sampleLeaves, tc) would compute, and reports whether it did. m's
// thresholds must be unset (Compute's or Load's output). Another scene, map,
// resolution or argument is not a table's key and leaves m untouched; a
// malformed table is an error.
func LoadThresholds(game string, m *Map, cfg render.Config, sampleLeaves int, tc ThresholdConfig) (bool, error) {
	data, err := tableData(game)
	if data == nil {
		return false, err
	}
	ok, err := applyThresholds(data, m, keyFor(m, cfg, sampleLeaves, tc))
	if err != nil {
		return false, fmt.Errorf("cutoff: thresholds/%s.txt: %w", game, err)
	}
	return ok, nil
}

// tableData returns the game's stored table, nil when it has none.
func tableData(game string) ([]byte, error) {
	data, err := fs.ReadFile(tables, "thresholds/"+game+".txt")
	if errors.Is(err, fs.ErrNotExist) {
		return nil, nil
	}
	return data, err
}

// keyFor is the thresholds half of the key of the table
// CalibrateThresholds(m, render.New(m.Scene, cfg), sampleLeaves, tc) would
// produce.
func keyFor(m *Map, cfg render.Config, sampleLeaves int, tc ThresholdConfig) tableKey {
	return tableKey{
		scene: sceneDigest(m.Scene), digest: mapDigest(m), leaves: len(m.Regions),
		w: cfg.W, h: cfg.H, calibrate: sampleLeaves, samples: tc.Samples, seed: tc.Seed,
	}
}

// loadMap rebuilds the map a stored table holds over scene when the table's
// map key is want's, and returns nil when it is not.
func loadMap(data []byte, scene *world.Scene, want tableKey) (*Map, error) {
	key, rows, err := parseTable(data)
	if err != nil || key.mapKey() != want.mapKey() {
		return nil, err
	}
	m := &Map{Scene: scene, Params: key.params, Regions: make([]Region, 0, len(rows))}
	nodes := 0
	m.root, err = m.rebuild(rows, scene.Bounds, 0, &nodes)
	if err != nil {
		return nil, err
	}
	if len(m.Regions) != len(rows) {
		return nil, fmt.Errorf("only the first %d of %d leaves tile the world", len(m.Regions), len(rows))
	}
	m.setStats(nodes)
	if d := mapDigest(m); d != key.digest {
		return nil, fmt.Errorf("leaves hash to map digest %#x, header says %#x", d, key.digest)
	}
	if err := m.Validate(); err != nil {
		return nil, err
	}
	return m, nil
}

// rebuild returns the quadtree node over bounds at depth, appending its
// leaves to m.Regions from rows in order: a row at this depth is a leaf, a
// deeper one means the node splits into its four quadrants, as Compute's
// partition does.
func (m *Map) rebuild(rows []leafRow, bounds geom.Rect, depth int, nodes *int) (node, error) {
	*nodes++
	id := len(m.Regions)
	if id == len(rows) {
		return node{}, fmt.Errorf("%d leaves end before they tile the world", id)
	}
	r := rows[id]
	if r.depth < depth {
		return node{}, fmt.Errorf("leaf %d at depth %d does not tile a depth-%d quadrant", id, r.depth, depth)
	}
	if r.depth == depth {
		m.Regions = append(m.Regions, Region{ID: id, Bounds: bounds, Depth: depth, Radius: r.radius, TriDensity: r.density})
		return node{bounds: bounds, leaf: int32(id)}, nil
	}
	var children [4]node
	for i, quad := range bounds.Quadrants() {
		c, err := m.rebuild(rows, quad, depth+1, nodes)
		if err != nil {
			return node{}, err
		}
		children[i] = c
	}
	return node{bounds: bounds, children: &children, leaf: -1}, nil
}

// applyThresholds fills m's thresholds from a stored table when the table's
// thresholds key is want's.
func applyThresholds(data []byte, m *Map, want tableKey) (bool, error) {
	key, rows, err := parseTable(data)
	if err != nil || key.threshKey() != want.threshKey() {
		return false, err
	}
	for i := range m.Regions {
		m.Regions[i].DistThresh = rows[i].thresh
	}
	return true, nil
}

// parseTable reads one stored table: its key and a row per leaf.
func parseTable(data []byte) (tableKey, []leafRow, error) {
	var k tableKey
	sc := bufio.NewScanner(bytes.NewReader(data))
	line := 0
	for sc.Scan() {
		line++
		if !bytes.HasPrefix(sc.Bytes(), []byte("#")) {
			break
		}
	}
	hdr := sc.Text()
	sc.Scan()
	line++
	hdr += "\n" + sc.Text()
	var budget, tolerance, minRegion string
	_, err := fmt.Sscanf(hdr, "scene %v limit %d k %d budget %s tolerance %s minregion %s seed %d\n"+
		"digest %v leaves %d render %dx%d calibrate %d samples %d seed %d",
		&k.scene, &k.limit, &k.params.K, &budget, &tolerance, &minRegion, &k.params.Seed,
		&k.digest, &k.leaves, &k.w, &k.h, &k.calibrate, &k.samples, &k.seed)
	for _, f := range []struct {
		s string
		v *float64
	}{{budget, &k.params.BudgetMs}, {tolerance, &k.params.Tolerance}, {minRegion, &k.params.MinRegion}} {
		if err == nil {
			*f.v, err = strconv.ParseFloat(f.s, 64)
		}
	}
	if err != nil || k.header() != hdr {
		return k, nil, fmt.Errorf("line %d: malformed header %q", line-1, hdr)
	}
	rows := make([]leafRow, 0, k.leaves)
	for sc.Scan() {
		line++
		r, err := parseRow(sc.Text())
		if err != nil {
			return k, nil, fmt.Errorf("line %d: %w", line, err)
		}
		rows = append(rows, r)
	}
	if err := sc.Err(); err != nil {
		return k, nil, err
	}
	if len(rows) != k.leaves {
		return k, nil, fmt.Errorf("%d rows for %d leaves", len(rows), k.leaves)
	}
	return k, rows, nil
}

// parseRow reads one leaf: "depth radius density thresh", each value within
// the range Compute and CalibrateThresholds produce.
func parseRow(s string) (leafRow, error) {
	f := strings.Fields(s)
	if len(f) != 4 {
		return leafRow{}, fmt.Errorf("leaf %q: want depth, radius, density and threshold", s)
	}
	var r leafRow
	var err error
	if r.depth, err = strconv.Atoi(f[0]); err != nil || r.depth < 0 || r.depth > maxDepth {
		return r, fmt.Errorf("depth %q not in [0, %d]", f[0], maxDepth)
	}
	for _, c := range []struct {
		v      *float64
		s      string
		lo, hi float64
	}{
		{&r.radius, f[1], radiusLo, radiusHi},
		{&r.density, f[2], 0, math.MaxFloat64},
		{&r.thresh, f[3], minThresh, maxThresh},
	} {
		v, err := strconv.ParseFloat(c.s, 64)
		if err != nil || !(v >= c.lo && v <= c.hi) {
			return r, fmt.Errorf("value %q not in [%v, %v]", c.s, c.lo, c.hi)
		}
		*c.v = v
	}
	return r, nil
}

// digest is an FNV-64a over a sequence of 64-bit words.
type digest struct {
	h   hash.Hash64
	buf [8]byte
}

func newDigest() *digest { return &digest{h: fnv.New64a()} }

func (d *digest) u(v uint64) {
	binary.LittleEndian.PutUint64(d.buf[:], v)
	d.h.Write(d.buf[:])
}

func (d *digest) f(v float64) { d.u(math.Float64bits(v)) }

func (d *digest) rect(r geom.Rect) {
	d.f(r.MinX)
	d.f(r.MinZ)
	d.f(r.MaxX)
	d.f(r.MaxZ)
}

func (d *digest) vec(v geom.Vec3) {
	d.f(v.X)
	d.f(v.Y)
	d.f(v.Z)
}

// mapDigest hashes the bits of every field of every region, in order.
func mapDigest(m *Map) uint64 {
	d := newDigest()
	d.u(uint64(len(m.Regions)))
	for _, r := range m.Regions {
		d.u(uint64(r.ID))
		d.rect(r.Bounds)
		d.u(uint64(r.Depth))
		d.f(r.Radius)
		d.f(r.DistThresh)
		d.f(r.TriDensity)
	}
	return d.h.Sum64()
}

// sceneDigest hashes every field of a scene that Compute or the renderer
// reads: its bounds, grid, terrain density and every field of every object.
func sceneDigest(s *world.Scene) uint64 {
	d := newDigest()
	d.rect(s.Bounds)
	d.rect(s.Grid.Bounds)
	d.f(s.Grid.Step)
	d.f(s.GroundTris)
	d.u(uint64(len(s.Objects)))
	for i := range s.Objects {
		o := &s.Objects[i]
		d.u(uint64(o.ID))
		d.u(uint64(o.Kind))
		d.vec(o.Center)
		d.f(o.Radius)
		d.vec(o.Half)
		d.u(uint64(o.Triangles))
		d.f(o.Shade)
		d.u(uint64(o.Pattern))
		smooth := uint64(0)
		if o.Smooth {
			smooth = 1
		}
		d.u(smooth)
	}
	return d.h.Sum64()
}

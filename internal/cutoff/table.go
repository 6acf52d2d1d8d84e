package cutoff

import (
	"bufio"
	"bytes"
	"embed"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"io/fs"
	"math"
	"strconv"

	"coterie/internal/render"
)

// The offline step's output (§4.3, §6): for each catalog game, the
// DistThresh of every leaf as CalibrateThresholds derives it on Compute's
// DefaultParams map at the default resolution. One text file per game,
// thresholds/<game>.txt: '#' comment lines, a header line naming what the
// table was derived from (tableHeader), then one hex float per leaf in
// region order. `go test ./internal/cutoff -run TestDefaultMapsUnchanged
// -update` rewrites them.
//
//go:embed thresholds/*.txt
var tables embed.FS

// DefaultSampleLeaves is the number of leaves whose thresholds are derived
// exactly, the rest extrapolated, unless a caller of CalibrateThresholds
// chooses another; the stored tables were derived with it.
const DefaultSampleLeaves = 3

// tableKey is what a stored table was derived from: a map (its digest and
// leaf count), the renderer's resolution, and CalibrateThresholds'
// sampleLeaves and ThresholdConfig.
type tableKey struct {
	digest    uint64
	leaves    int
	w, h      int
	calibrate int
	samples   int
	seed      int64
}

// tableHeader writes a tableKey; scanning it back uses %v for the digest,
// which accepts the 0x prefix.
const tableHeader = "digest %#x leaves %d render %dx%d calibrate %d samples %d seed %d"

func (k tableKey) header() string {
	return fmt.Sprintf(tableHeader, k.digest, k.leaves, k.w, k.h, k.calibrate, k.samples, k.seed)
}

// LoadThresholds fills every leaf's DistThresh from the game's stored table
// when that table was derived from this map with these arguments, that is
// when it holds what CalibrateThresholds(m, render.New(m.Scene, cfg),
// sampleLeaves, tc) would compute, and reports whether it did. m must be
// Compute's output for the catalog game's scene: the key pins the map, not
// the scene behind it. Another game, map, resolution or argument is not a
// table's key and leaves m untouched; a malformed table is an error.
func LoadThresholds(game string, m *Map, cfg render.Config, sampleLeaves int, tc ThresholdConfig) (bool, error) {
	data, err := fs.ReadFile(tables, "thresholds/"+game+".txt")
	if errors.Is(err, fs.ErrNotExist) {
		return false, nil
	}
	if err != nil {
		return false, err
	}
	ok, err := applyTable(data, m, keyFor(m, cfg, sampleLeaves, tc))
	if err != nil {
		return false, fmt.Errorf("cutoff: thresholds/%s.txt: %w", game, err)
	}
	return ok, nil
}

// keyFor is the key of the table CalibrateThresholds(m, render.New(m.Scene,
// cfg), sampleLeaves, tc) would produce.
func keyFor(m *Map, cfg render.Config, sampleLeaves int, tc ThresholdConfig) tableKey {
	return tableKey{mapDigest(m), len(m.Regions), cfg.W, cfg.H, sampleLeaves, tc.Samples, tc.Seed}
}

// applyTable fills m's thresholds from a stored table whose key is want.
func applyTable(data []byte, m *Map, want tableKey) (bool, error) {
	key, thresh, err := parseTable(data)
	if err != nil || key != want {
		return false, err
	}
	for i := range m.Regions {
		m.Regions[i].DistThresh = thresh[i]
	}
	return true, nil
}

// parseTable reads one stored table: its key and a threshold per leaf.
func parseTable(data []byte) (tableKey, []float64, error) {
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
	_, err := fmt.Sscanf(hdr, "digest %v leaves %d render %dx%d calibrate %d samples %d seed %d",
		&k.digest, &k.leaves, &k.w, &k.h, &k.calibrate, &k.samples, &k.seed)
	if err != nil || k.header() != hdr {
		return k, nil, fmt.Errorf("line %d: malformed header %q", line, hdr)
	}
	thresh := make([]float64, 0, k.leaves)
	for sc.Scan() {
		line++
		v, err := strconv.ParseFloat(sc.Text(), 64)
		if err != nil || !(v >= minThresh && v <= maxThresh) {
			return k, nil, fmt.Errorf("line %d: threshold %q not in [%v, %v]", line, sc.Text(), minThresh, maxThresh)
		}
		thresh = append(thresh, v)
	}
	if err := sc.Err(); err != nil {
		return k, nil, err
	}
	if len(thresh) != k.leaves {
		return k, nil, fmt.Errorf("%d thresholds for %d leaves", len(thresh), k.leaves)
	}
	return k, thresh, nil
}

// mapDigest hashes the bits of every field of every region, in order.
func mapDigest(m *Map) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	putF := func(f float64) { put(math.Float64bits(f)) }
	put(uint64(len(m.Regions)))
	for _, r := range m.Regions {
		put(uint64(r.ID))
		putF(r.Bounds.MinX)
		putF(r.Bounds.MinZ)
		putF(r.Bounds.MaxX)
		putF(r.Bounds.MaxZ)
		put(uint64(r.Depth))
		putF(r.Radius)
		putF(r.DistThresh)
		putF(r.TriDensity)
	}
	return h.Sum64()
}

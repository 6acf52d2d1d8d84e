package cutoff

import (
	"flag"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"coterie/internal/render"
)

var update = flag.Bool("update", false, "rewrite thresholds/<game>.txt from a fresh calibration instead of comparing against it")

// formatTable writes a stored table in the format parseTable reads.
func formatTable(k tableKey, thresh []float64) []byte {
	var b strings.Builder
	b.WriteString("# Per-leaf cache distance thresholds (DistThresh, §5.3), one hex float per leaf in region order.\n")
	b.WriteString("# Regenerate: go test ./internal/cutoff -run TestDefaultMapsUnchanged -update\n")
	b.WriteString(k.header() + "\n")
	for _, v := range thresh {
		b.WriteString(strconv.FormatFloat(v, 'x', -1, 64) + "\n")
	}
	return []byte(b.String())
}

func thresholdsOf(m *Map) []float64 {
	out := make([]float64, len(m.Regions))
	for i, r := range m.Regions {
		out[i] = r.DistThresh
	}
	return out
}

// withRegions returns a copy of m whose regions can change without
// touching m's.
func withRegions(m *Map) *Map {
	c := *m
	c.Regions = append([]Region(nil), m.Regions...)
	return &c
}

// checkTable holds the game's stored table to CalibrateThresholds at the
// defaults on m, Compute's map for the game: the table must be accepted for
// m and equal the calibration bit for bit. With -update it writes the
// calibration to the table instead.
func checkTable(t *testing.T, game string, m *Map) {
	t.Helper()
	cfg, tc := render.DefaultConfig(), DefaultThresholdConfig()
	want := withRegions(m)
	if err := CalibrateThresholds(want, render.New(m.Scene, cfg), DefaultSampleLeaves, tc); err != nil {
		t.Fatal(err)
	}
	if *update {
		k := keyFor(m, cfg, DefaultSampleLeaves, tc)
		if err := os.WriteFile(filepath.Join("thresholds", game+".txt"), formatTable(k, thresholdsOf(want)), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	got := withRegions(m)
	ok, err := LoadThresholds(game, got, cfg, DefaultSampleLeaves, tc)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Errorf("%s: stored thresholds not accepted for Compute's map (go test ./internal/cutoff -run TestDefaultMapsUnchanged -update)", game)
		return
	}
	for i := range got.Regions {
		if g, w := got.Regions[i].DistThresh, want.Regions[i].DistThresh; math.Float64bits(g) != math.Float64bits(w) {
			t.Errorf("%s: leaf %d stored threshold %v, calibration %v", game, i, g, w)
			return
		}
	}
}

// loaderFixture is a small map with distinct thresholds and the table that
// stores them under key.
func loaderFixture() (m *Map, key tableKey, table []byte) {
	m = &Map{Regions: make([]Region, 12)}
	for i := range m.Regions {
		m.Regions[i] = Region{ID: i, Depth: 2, Radius: float64(i + 1)}
	}
	thresh := make([]float64, len(m.Regions))
	for i := range thresh {
		thresh[i] = minThresh + float64(i)/7
	}
	key = keyFor(m, render.Config{W: 32, H: 16}, 1, DefaultThresholdConfig())
	return m, key, formatTable(key, thresh)
}

func TestApplyTableFillsEveryLeaf(t *testing.T) {
	m, key, table := loaderFixture()
	ok, err := applyTable(table, m, key)
	if !ok || err != nil {
		t.Fatalf("table for this key: accepted %v, err %v", ok, err)
	}
	for i, r := range m.Regions {
		if want := minThresh + float64(i)/7; r.DistThresh != want {
			t.Fatalf("leaf %d: %v, want %v", i, r.DistThresh, want)
		}
	}
}

// TestApplyTableRefusesOtherKey: a well-formed table of another map (digest)
// or of a map with one leaf more is not this map's, and leaves it untouched.
func TestApplyTableRefusesOtherKey(t *testing.T) {
	m, key, _ := loaderFixture()
	otherDigest := key
	otherDigest.digest++
	moreLeaves := key
	moreLeaves.leaves++
	for name, k := range map[string]tableKey{"digest": otherDigest, "leaves": moreLeaves} {
		thresh := make([]float64, k.leaves)
		for i := range thresh {
			thresh[i] = 1
		}
		ok, err := applyTable(formatTable(k, thresh), m, key)
		if ok || err != nil {
			t.Errorf("wrong %s: accepted %v, err %v; want refused", name, ok, err)
		}
		for i, r := range m.Regions {
			if r.DistThresh != 0 {
				t.Fatalf("wrong %s: leaf %d set to %v", name, i, r.DistThresh)
			}
		}
	}
}

// TestApplyTableRejectsMalformed: every damaged table is an error, never a
// silent refusal that would hide it behind a calibration.
func TestApplyTableRejectsMalformed(t *testing.T) {
	m, key, table := loaderFixture()
	lines := strings.SplitAfter(string(table), "\n")
	hdr := 2 // after the two comment lines
	edit := func(i int, s string) string {
		c := append([]string(nil), lines...)
		c[i] = s
		return strings.Join(c, "")
	}
	cases := map[string]string{
		"value not a number":  edit(hdr+3, "0x1.8p+0x\n"),
		"value out of range":  edit(hdr+3, "64\n"),
		"value NaN":           edit(hdr+3, "NaN\n"),
		"blank line":          edit(hdr+3, "\n"),
		"one value short":     edit(len(lines)-2, ""),
		"one value more":      string(table) + "0x1p+00\n",
		"header garbled":      edit(hdr, strings.Replace(lines[hdr], "render", "rendr", 1)),
		"header trailing":     edit(hdr, strings.TrimSuffix(lines[hdr], "\n")+" extra\n"),
		"header missing":      strings.Join(append(lines[:hdr:hdr], lines[hdr+1:]...), ""),
		"only comments":       strings.Join(lines[:hdr], ""),
		"uncommented comment": edit(0, strings.TrimPrefix(lines[0], "#")),
	}
	for name, data := range cases {
		if ok, err := applyTable([]byte(data), m, key); ok || err == nil {
			t.Errorf("%s: accepted %v, err %v; want an error", name, ok, err)
		}
	}
}

func TestLoadThresholdsUnknownGame(t *testing.T) {
	m, _, _ := loaderFixture()
	for _, game := range []string{"no-such-game", "", "../cutoff"} {
		if ok, err := LoadThresholds(game, m, render.DefaultConfig(), DefaultSampleLeaves, DefaultThresholdConfig()); ok || err != nil {
			t.Errorf("%q: accepted %v, err %v; want no table", game, ok, err)
		}
	}
}

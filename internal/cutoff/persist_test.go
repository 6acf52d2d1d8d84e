package cutoff

import (
	"bytes"
	"math/rand"
	"os"
	"runtime"
	"strings"
	"testing"

	"coterie/internal/games"
	"coterie/internal/geom"
)

func TestSaveLoadRoundTrip(t *testing.T) {
	scene := twoZoneScene()
	m, err := Compute(scene, rt(), testParams())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(&buf, scene)
	if err != nil {
		t.Fatal(err)
	}
	if len(loaded.Regions) != len(m.Regions) {
		t.Fatalf("regions %d != %d", len(loaded.Regions), len(m.Regions))
	}
	for i := range m.Regions {
		a, b := m.Regions[i], loaded.Regions[i]
		if a.Bounds != b.Bounds || a.Radius != b.Radius || a.DistThresh != b.DistThresh || a.Depth != b.Depth {
			t.Fatalf("region %d differs: %+v vs %+v", i, a, b)
		}
	}
	// The reconstructed tree answers lookups identically.
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 2000; i++ {
		p := geom.V2(rng.Float64()*128, rng.Float64()*64)
		la, lb := m.LeafAt(p), loaded.LeafAt(p)
		if (la == nil) != (lb == nil) {
			t.Fatalf("lookup presence differs at %v", p)
		}
		if la != nil && la.Bounds != lb.Bounds {
			t.Fatalf("lookup differs at %v: %v vs %v", p, la.Bounds, lb.Bounds)
		}
	}
	if loaded.Stats.LeafCount != m.Stats.LeafCount || loaded.Stats.DepthMax != m.Stats.DepthMax {
		t.Fatalf("stats differ: %+v vs %+v", loaded.Stats, m.Stats)
	}
}

func TestLoadRejectsWrongScene(t *testing.T) {
	scene := twoZoneScene()
	m, err := Compute(scene, rt(), testParams())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	other := twoZoneScene()
	other.Name = "different"
	if _, err := Load(&buf, other); err == nil {
		t.Fatal("map accepted for the wrong scene")
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	scene := twoZoneScene()
	if _, err := Load(strings.NewReader("not json"), scene); err == nil {
		t.Fatal("garbage accepted")
	}
	if _, err := Load(strings.NewReader(`{"format":"something-else"}`), scene); err == nil {
		t.Fatal("wrong format accepted")
	}
	// Valid format but missing regions: fails validation.
	if _, err := Load(strings.NewReader(`{"format":"coterie-cutoff-map/1","scene":"twozone","params":{"K":5,"BudgetMs":12.7,"MinRadius":0.5,"MaxRadius":200},"regions":[]}`), scene); err == nil {
		t.Fatal("empty region set accepted")
	}
}

// stripMap splits Pool's 10 m width at 10·2⁻²⁰ m into two regions with
// valid radii that cover the bounds. The first is no quadtree cell, so
// every node along its edge splits down to the depth cap: before the
// rebuild counted its leaves, loading these bytes built 384 MB of nodes
// (and Validate then accepted the map).
const stripMap = `{"format":"coterie-cutoff-map/1","scene":"Pool","params":{"MinRadius":0.5,"MaxRadius":200},` +
	`"regions":[{"bounds":[0,0,9.5367431640625e-06,13],"radius":1},{"bounds":[9.5367431640625e-06,0,10,13],"radius":1}]}`

func TestLoadRefusesNonQuadtreeRegionsWithBoundedAllocation(t *testing.T) {
	g, err := games.BuildByName("pool")
	if err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err = Load(strings.NewReader(stripMap), g.Scene)
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("a map whose regions are not quadtree cells was accepted")
	}
	if n := after.TotalAlloc - before.TotalAlloc; n > 1<<20 {
		t.Fatalf("refusing a %d-byte map allocated %d bytes", len(stripMap), n)
	}
}

// FuzzLoad feeds Load arbitrary bytes against the Pool scene: malformed
// input is an error, never a panic, and whatever loads is a valid map that
// round-trips through Save. The seeds are a saved Pool map (cutoffgen -game
// pool -o), truncations of it and stripMap.
func FuzzLoad(f *testing.F) {
	g, err := games.BuildByName("pool")
	if err != nil {
		f.Fatal(err)
	}
	saved, err := os.ReadFile("testdata/pool.json")
	if err != nil {
		f.Fatal(err)
	}
	if _, err := Load(bytes.NewReader(saved), g.Scene); err != nil {
		f.Fatalf("saved pool map does not load: %v", err)
	}
	f.Add(saved)
	f.Add(saved[:len(saved)/2])
	f.Add([]byte(stripMap))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := Load(bytes.NewReader(data), g.Scene)
		if err != nil {
			if m != nil {
				t.Fatal("Load returned a map with an error")
			}
			return
		}
		if err := m.Validate(); err != nil {
			t.Fatalf("loaded map invalid: %v", err)
		}
		var buf bytes.Buffer
		if err := m.Save(&buf); err != nil {
			t.Fatal(err)
		}
		again, err := Load(&buf, g.Scene)
		if err != nil {
			t.Fatalf("saved map does not load again: %v", err)
		}
		if len(again.Regions) != len(m.Regions) {
			t.Fatalf("%d regions reload as %d", len(m.Regions), len(again.Regions))
		}
		for i, r := range m.Regions {
			if again.Regions[i].Bounds != r.Bounds {
				t.Fatalf("region %d bounds %v reload as %v", i, r.Bounds, again.Regions[i].Bounds)
			}
		}
	})
}

package cutoff

import (
	"flag"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"testing"

	"coterie/internal/games"
	"coterie/internal/geom"
	"coterie/internal/render"
	"coterie/internal/world"
)

var update = flag.Bool("update", false, "rewrite thresholds/<game>.txt from a fresh Compute and calibration instead of comparing against them")

// formatTable writes a stored table in the format parseTable reads.
func formatTable(k tableKey, rows []leafRow) []byte {
	var b strings.Builder
	b.WriteString("# Offline output of the adaptive cutoff scheme (§4.3, §6), one leaf per line in region order:\n")
	b.WriteString("# depth, cutoff radius, triangle density and cache distance threshold (§5.3), floats in hex.\n")
	b.WriteString("# Regenerate: make thresholds\n")
	b.WriteString(k.header() + "\n")
	for _, r := range rows {
		b.WriteString(strconv.Itoa(r.depth) + " " + hexFloat(r.radius) + " " + hexFloat(r.density) + " " + hexFloat(r.thresh) + "\n")
	}
	return []byte(b.String())
}

func rowsOf(m *Map) []leafRow {
	rows := make([]leafRow, len(m.Regions))
	for i, r := range m.Regions {
		rows[i] = leafRow{r.Depth, r.Radius, r.TriDensity, r.DistThresh}
	}
	return rows
}

// tableKeyOf is the whole key of the table holding m, Compute's map with
// its thresholds still unset, and the thresholds CalibrateThresholds(m,
// render.New(m.Scene, cfg), sampleLeaves, tc) derives.
func tableKeyOf(m *Map, rt RenderTimer, cfg render.Config, sampleLeaves int, tc ThresholdConfig) tableKey {
	k := keyFor(m, cfg, sampleLeaves, tc)
	k.limit = nearBELimit(rt, m.Params.BudgetMs, m.Scene.TotalTriangles())
	k.params = m.Params
	return k
}

// withRegions returns a copy of m whose regions can change without
// touching m's.
func withRegions(m *Map) *Map {
	c := *m
	c.Regions = append([]Region(nil), m.Regions...)
	return &c
}

// sameMap holds a loaded map to Compute's: Params, Stats other than
// ProcTime, every Region field bit for bit, and LeafAt on every region's
// centre and on 1,000 seeded random points.
func sameMap(t *testing.T, name string, got, want *Map) {
	t.Helper()
	gs, ws := got.Stats, want.Stats
	gs.ProcTime, ws.ProcTime = 0, 0
	if got.Params != want.Params || gs != ws || len(got.Regions) != len(want.Regions) {
		t.Fatalf("%s: loaded %+v %+v with %d leaves, computed %+v %+v with %d", name,
			got.Params, gs, len(got.Regions), want.Params, ws, len(want.Regions))
	}
	bits := func(r Region) [10]uint64 {
		f := math.Float64bits
		return [10]uint64{uint64(r.ID), f(r.Bounds.MinX), f(r.Bounds.MinZ), f(r.Bounds.MaxX), f(r.Bounds.MaxZ),
			uint64(r.Depth), f(r.Radius), f(r.DistThresh), f(r.TriDensity), 0}
	}
	for i := range want.Regions {
		if g, w := bits(got.Regions[i]), bits(want.Regions[i]); g != w {
			t.Fatalf("%s: leaf %d loaded %+v, computed %+v", name, i, got.Regions[i], want.Regions[i])
		}
	}
	if !got.Equal(want) || !want.Equal(got) {
		t.Fatalf("%s: Equal reports the maps differ", name)
	}
	b := want.Scene.Bounds
	pts := make([]geom.Vec2, 0, len(want.Regions)+1000)
	for _, r := range want.Regions {
		pts = append(pts, r.Bounds.Center())
	}
	rng := rand.New(rand.NewSource(53))
	for i := 0; i < 1000; i++ {
		pts = append(pts, geom.V2(b.MinX+rng.Float64()*b.Width(), b.MinZ+rng.Float64()*b.Depth()))
	}
	for _, p := range pts {
		g, w := got.LeafAt(p), want.LeafAt(p)
		if (g == nil) != (w == nil) || g != nil && g.ID != w.ID {
			t.Fatalf("%s: LeafAt(%v) loaded %+v, computed %+v", name, p, g, w)
		}
	}
}

// checkTable holds the game's stored table to m, Compute's map for the
// game, and to CalibrateThresholds at the defaults on it: Load must return
// m (sameMap) and LoadThresholds the calibration bit for bit. With -update
// it writes m and the calibration to the table instead.
func checkTable(t *testing.T, game string, m *Map) {
	t.Helper()
	cfg, tc := render.DefaultConfig(), DefaultThresholdConfig()
	want := withRegions(m)
	if err := CalibrateThresholds(want, render.New(m.Scene, cfg), DefaultSampleLeaves, tc); err != nil {
		t.Fatal(err)
	}
	if *update {
		k := tableKeyOf(m, rt(), cfg, DefaultSampleLeaves, tc)
		if err := os.WriteFile(filepath.Join("thresholds", game+".txt"), formatTable(k, rowsOf(want)), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	got, err := Load(game, m.Scene, rt(), DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	if got == nil {
		t.Errorf("%s: stored map not accepted for Compute's scene and parameters (make thresholds)", game)
		return
	}
	sameMap(t, game, got, m)
	ok, err := LoadThresholds(game, got, cfg, DefaultSampleLeaves, tc)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Errorf("%s: stored thresholds not accepted for Compute's map (make thresholds)", game)
		return
	}
	for i := range got.Regions {
		if g, w := got.Regions[i].DistThresh, want.Regions[i].DistThresh; math.Float64bits(g) != math.Float64bits(w) {
			t.Errorf("%s: leaf %d stored threshold %v, calibration %v", game, i, g, w)
			return
		}
	}
}

var fixture struct {
	once sync.Once
	m    *Map // Compute's, thresholds unset
	err  error
}

// loaderFixture is Compute's map of twoZoneScene, the whole key of a table
// that stores it with distinct made-up thresholds, and that table.
func loaderFixture(t *testing.T) (m *Map, key tableKey, table []byte) {
	t.Helper()
	fixture.once.Do(func() { fixture.m, fixture.err = Compute(twoZoneScene(), rt(), testParams()) })
	if fixture.err != nil {
		t.Fatal(fixture.err)
	}
	m = withRegions(fixture.m)
	key = tableKeyOf(m, rt(), render.Config{W: 32, H: 16}, 1, DefaultThresholdConfig())
	return m, key, formatTable(key, fixtureRows(m))
}

// fixtureRows are m's leaves with the fixture's thresholds.
func fixtureRows(m *Map) []leafRow {
	rows := rowsOf(m)
	for i := range rows {
		rows[i].thresh = fixtureThresh(i)
	}
	return rows
}

func fixtureThresh(i int) float64 { return minThresh + float64(i)/7 }

// TestApplyTableFillsEveryLeaf: a table whose key is the map's rebuilds the
// map Compute built, and then fills every leaf's threshold.
func TestApplyTableFillsEveryLeaf(t *testing.T) {
	m, key, table := loaderFixture(t)
	if len(m.Regions) < 16 {
		t.Fatalf("fixture has %d leaves; it should split", len(m.Regions))
	}
	got, err := loadMap(table, m.Scene, key)
	if got == nil || err != nil {
		t.Fatalf("map for this key: %v, err %v", got, err)
	}
	sameMap(t, "twozone", got, m)
	ok, err := applyThresholds(table, got, key)
	if !ok || err != nil {
		t.Fatalf("thresholds for this key: accepted %v, err %v", ok, err)
	}
	for i, r := range got.Regions {
		if want := fixtureThresh(i); r.DistThresh != want {
			t.Fatalf("leaf %d: %v, want %v", i, r.DistThresh, want)
		}
	}
}

// TestApplyTableRefusesOtherKey: a well-formed table of other parameters, of
// another scene or timer, is not this map's, and neither are its thresholds
// the thresholds of another map (digest) or of a map with one leaf more;
// a refused table leaves the map untouched.
func TestApplyTableRefusesOtherKey(t *testing.T) {
	m, key, _ := loaderFixture(t)
	k5 := testParams()
	k5.K = 5
	mapCases := map[string]func(k *tableKey){
		"K = 5":        func(k *tableKey) { k.params = k5.resolved(m.Scene) },
		"scene digest": func(k *tableKey) { k.scene++ },
		"limit":        func(k *tableKey) { k.limit++ },
	}
	for name, edit := range mapCases {
		k := key
		edit(&k)
		if got, err := loadMap(formatTable(k, fixtureRows(m)), m.Scene, key); got != nil || err != nil {
			t.Errorf("map of another %s: %v, err %v; want refused", name, got, err)
		}
	}
	threshCases := map[string]func(k *tableKey){
		"scene digest": func(k *tableKey) { k.scene++ },
		"map digest":   func(k *tableKey) { k.digest++ },
		"leaf count":   func(k *tableKey) { k.leaves++ },
	}
	for name, edit := range threshCases {
		k := key
		edit(&k)
		rows := make([]leafRow, k.leaves)
		for i := range rows {
			rows[i] = leafRow{depth: 1, radius: 1, thresh: 1}
		}
		ok, err := applyThresholds(formatTable(k, rows), m, key)
		if ok || err != nil {
			t.Errorf("thresholds of another %s: accepted %v, err %v; want refused", name, ok, err)
		}
		for i, r := range m.Regions {
			if r.DistThresh != 0 {
				t.Fatalf("another %s: leaf %d set to %v", name, i, r.DistThresh)
			}
		}
	}
}

// TestApplyTableRejectsMalformed: every damaged table is an error, never a
// silent refusal that would hide it behind a Compute, and never a map.
func TestApplyTableRejectsMalformed(t *testing.T) {
	m, key, table := loaderFixture(t)
	lines := strings.SplitAfter(string(table), "\n")
	hdr := 3 // after the three comment lines
	edit := func(i int, s string) string {
		c := append([]string(nil), lines...)
		c[i] = s
		return strings.Join(c, "")
	}
	row := func(i int) []string { return strings.Fields(lines[hdr+2+i]) }
	setRow := func(i int, f []string) string { return edit(hdr+2+i, strings.Join(f, " ")+"\n") }
	withRows := func(k tableKey, rows []leafRow) string { return string(formatTable(k, rows)) }
	rows := fixtureRows(m)
	fewer, more := key, key
	fewer.leaves--
	more.leaves++
	deeper := append([]leafRow(nil), rows...)
	deeper[0].depth++
	shallower := append([]leafRow(nil), rows...)
	shallower[len(rows)-1].depth--
	moved := append([]leafRow(nil), rows...)
	widest := 0
	for i, r := range rows {
		if r.radius > rows[widest].radius {
			widest = i
		}
	}
	moved[widest].radius = math.Nextafter(moved[widest].radius, 0)
	wrongDigest := key
	wrongDigest.digest++
	cases := map[string]struct{ data, err string }{
		"value not a number":  {setRow(3, append(row(3)[:3], "0x1.8p+0x")), "not in"},
		"threshold too large": {setRow(3, append(row(3)[:3], "64")), "not in"},
		"threshold NaN":       {setRow(3, append(row(3)[:3], "NaN")), "not in"},
		"radius too small":    {setRow(3, append(row(3)[:1], "0x1p-02", row(3)[2], row(3)[3])), "not in"},
		"radius too large":    {setRow(3, append(row(3)[:1], "0x1p+08", row(3)[2], row(3)[3])), "not in"},
		"density negative":    {setRow(3, append(row(3)[:2], "-0x1p+00", row(3)[3])), "not in"},
		"depth negative":      {setRow(3, append([]string{"-1"}, row(3)[1:]...)), "depth"},
		"depth too deep":      {setRow(3, append([]string{"11"}, row(3)[1:]...)), "depth"},
		"three columns":       {setRow(3, row(3)[:3]), "want depth"},
		"blank line":          {edit(hdr+5, "\n"), "want depth"},
		"one row short":       {edit(len(lines)-2, ""), "rows for"},
		"one row more":        {string(table) + lines[hdr+2], "rows for"},
		"leaves end early":    {withRows(fewer, rows[:len(rows)-1]), "tile"},
		"a leaf too many":     {withRows(more, append(rows, rows[0])), "tile"},
		"a leaf too deep":     {withRows(key, deeper), "tile"},
		"a leaf too shallow":  {withRows(key, shallower), "tile"},
		"radius moved":        {withRows(key, moved), "map digest"},
		"header digest":       {withRows(wrongDigest, rows), "map digest"},
		"header garbled":      {edit(hdr+1, strings.Replace(lines[hdr+1], "render", "rendr", 1)), "header"},
		"header trailing":     {edit(hdr+1, strings.TrimSuffix(lines[hdr+1], "\n")+" extra\n"), "header"},
		"header float":        {edit(hdr, strings.Replace(lines[hdr], "budget 0x", "budget 0X", 1)), "header"},
		"header line missing": {strings.Join(append(lines[:hdr+1:hdr+1], lines[hdr+2:]...), ""), "header"},
		"only comments":       {strings.Join(lines[:hdr], ""), "header"},
		"uncommented comment": {edit(0, strings.TrimPrefix(lines[0], "#")), "header"},
	}
	for name, c := range cases {
		got, err := loadMap([]byte(c.data), m.Scene, key)
		if got != nil || err == nil || !strings.Contains(err.Error(), c.err) {
			t.Errorf("%s: map %v, err %v; want an error naming %q", name, got, err, c.err)
		}
		if c.err == "tile" || c.err == "map digest" {
			continue // the rows are well formed; only the map is wrong
		}
		if ok, err := applyThresholds([]byte(c.data), m, key); ok || err == nil {
			t.Errorf("%s: thresholds accepted %v, err %v; want an error", name, ok, err)
		}
	}
}

func TestLoadThresholdsUnknownGame(t *testing.T) {
	m, _, _ := loaderFixture(t)
	for _, game := range []string{"no-such-game", "", "../cutoff"} {
		if ok, err := LoadThresholds(game, m, render.DefaultConfig(), DefaultSampleLeaves, DefaultThresholdConfig()); ok || err != nil {
			t.Errorf("%q: thresholds accepted %v, err %v; want no table", game, ok, err)
		}
		if got, err := Load(game, m.Scene, rt(), testParams()); got != nil || err != nil {
			t.Errorf("%q: map %v, err %v; want no table", game, got, err)
		}
	}
}

// TestStoredTableRefusesChangedShade: a game whose builder changed one
// object's Shade, which Compute never reads but the renderer does, is
// served neither the stored map nor the stored thresholds.
func TestStoredTableRefusesChangedShade(t *testing.T) {
	spec, err := games.ByName("pool")
	if err != nil {
		t.Fatal(err)
	}
	scene := games.Build(spec).Scene
	m, err := Load("pool", scene, rt(), DefaultParams())
	if m == nil || err != nil {
		t.Fatalf("pool's own scene: map %v, err %v", m, err)
	}
	objs := append([]world.Object(nil), scene.Objects...)
	objs[len(objs)/2].Shade = math.Nextafter(objs[len(objs)/2].Shade, 2)
	shaded := world.New(scene.Name, scene.Bounds, scene.Grid.Step, objs, scene.GroundTris)
	if got, err := Load("pool", shaded, rt(), DefaultParams()); got != nil || err != nil {
		t.Errorf("changed Shade: map %v, err %v; want refused", got, err)
	}
	m.Scene = shaded
	cfg, tc := render.DefaultConfig(), DefaultThresholdConfig()
	if ok, err := LoadThresholds("pool", m, cfg, DefaultSampleLeaves, tc); ok || err != nil {
		t.Errorf("changed Shade: thresholds accepted %v, err %v; want refused", ok, err)
	}
	m.Scene = scene
	if ok, err := LoadThresholds("pool", m, cfg, DefaultSampleLeaves, tc); !ok || err != nil {
		t.Errorf("pool's own scene: thresholds accepted %v, err %v", ok, err)
	}
}

// TestSceneDigestCoversEveryField changes each field of a scene and of its
// object one at a time: every change moves sceneDigest. A field added to
// world.Scene or world.Object fails here until the digest hashes it.
func TestSceneDigestCoversEveryField(t *testing.T) {
	base := func() *world.Scene {
		obj := world.Object{ID: 3, Kind: world.KindBox, Center: geom.V3(5, 1, 5), Radius: 1,
			Half: geom.V3(1, 2, 1), Triangles: 12, Shade: 0.5, Pattern: 1}
		return world.New("s", geom.NewRect(10, 10), 1, []world.Object{obj}, 2)
	}
	want := sceneDigest(base())
	var walk func(typ reflect.Type, path []int, visit func([]int, reflect.StructField))
	walk = func(typ reflect.Type, path []int, visit func([]int, reflect.StructField)) {
		for i := 0; i < typ.NumField(); i++ {
			f := typ.Field(i)
			p := append(append([]int(nil), path...), i)
			if f.Type.Kind() == reflect.Struct {
				walk(f.Type, p, visit)
			} else {
				visit(p, f)
			}
		}
	}
	bump := func(v reflect.Value, name string) {
		switch v.Kind() {
		case reflect.Float64:
			v.SetFloat(v.Float() + 1)
		case reflect.Int, reflect.Int64:
			v.SetInt(v.Int() + 1)
		case reflect.Uint8:
			v.SetUint(v.Uint() + 1)
		case reflect.Bool:
			v.SetBool(!v.Bool())
		default:
			t.Fatalf("field %s of kind %v: hash it in sceneDigest and bump it here", name, v.Kind())
		}
	}
	n := 0
	walk(reflect.TypeOf(world.Scene{}), nil, func(p []int, f reflect.StructField) {
		// The name is the table's file name; the index is built from the
		// objects.
		if f.Name == "Name" || f.Name == "Objects" || !f.IsExported() {
			return
		}
		s := base()
		bump(reflect.ValueOf(s).Elem().FieldByIndex(p), "Scene."+f.Name)
		if sceneDigest(s) == want {
			t.Errorf("scene field %v (%s) is not in sceneDigest", p, f.Name)
		}
		n++
	})
	walk(reflect.TypeOf(world.Object{}), nil, func(p []int, f reflect.StructField) {
		s := base()
		bump(reflect.ValueOf(&s.Objects[0]).Elem().FieldByIndex(p), "Object."+f.Name)
		if sceneDigest(s) == want {
			t.Errorf("object field %v (%s) is not in sceneDigest", p, f.Name)
		}
		n++
	})
	if n != 10+13 {
		t.Errorf("%d fields changed, want 10 of the scene and 13 of its object", n)
	}
}

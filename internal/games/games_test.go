package games

import (
	"math"
	"testing"

	"coterie/internal/device"
	"coterie/internal/geom"
	"coterie/internal/world"
)

func TestCatalogComplete(t *testing.T) {
	cat := Catalog()
	if len(cat) != 9 {
		t.Fatalf("catalog has %d games, paper studies 9", len(cat))
	}
	outdoor, indoor := 0, 0
	for _, s := range cat {
		if s.Outdoor {
			outdoor++
		} else {
			indoor++
		}
	}
	if outdoor != 6 || indoor != 3 {
		t.Fatalf("%d outdoor / %d indoor, paper has 6/3", outdoor, indoor)
	}
}

func TestGridPointCountsMatchTable3(t *testing.T) {
	for _, s := range Catalog() {
		g := geom.NewGrid(geom.NewRect(s.Width, s.Depth), s.GridStep)
		gotM := float64(g.Points()) / 1e6
		if math.Abs(gotM-s.Paper.GridPointsM)/s.Paper.GridPointsM > 0.05 {
			t.Errorf("%s: %.2fM grid points, Table 3 says %.2fM", s.Name, gotM, s.Paper.GridPointsM)
		}
	}
}

func TestByName(t *testing.T) {
	s, err := ByName("viking")
	if err != nil || s.FullName != "Viking Village" {
		t.Fatalf("ByName viking = %+v, %v", s, err)
	}
	if _, err := ByName("doom"); err == nil {
		t.Fatal("expected error for unknown game")
	}
}

func TestAllGamesBuildAndValidate(t *testing.T) {
	for _, s := range Catalog() {
		g := Build(s)
		if err := g.Scene.Validate(); err != nil {
			t.Errorf("%s: %v", s.Name, err)
		}
		if len(g.Scene.Objects) < 20 {
			t.Errorf("%s: only %d objects", s.Name, len(g.Scene.Objects))
		}
		if g.Spec.Genre == GenreRacing && len(g.Track) == 0 {
			t.Errorf("%s: racing game without a track", s.Name)
		}
		if !g.Scene.Bounds.ContainsClosed(g.Spawn) {
			t.Errorf("%s: spawn %v outside world", s.Name, g.Spawn)
		}
	}
}

func TestBuildDeterministic(t *testing.T) {
	a := Build(Catalog()[2])
	b := Build(Catalog()[2])
	if len(a.Scene.Objects) != len(b.Scene.Objects) {
		t.Fatal("non-deterministic object count")
	}
	for i := range a.Scene.Objects {
		if a.Scene.Objects[i] != b.Scene.Objects[i] {
			t.Fatalf("object %d differs between builds", i)
		}
	}
}

func TestHeadlineMobileRenderTimes(t *testing.T) {
	// Table 1, Mobile rows: Viking 38.2ms, CTS 42.0ms, Racing 38.2ms per
	// frame. The scene totals must put the device model in that band.
	p := device.Pixel2()
	want := map[string][2]float64{
		"viking": {33, 50},
		"cts":    {33, 55},
		"racing": {33, 50},
	}
	for name := range want {
		s := mustSpec(t, name)
		g := Build(s)
		total := g.Scene.TotalTriangles()
		ms := p.FullSceneRenderMs(int(float64(total) / s.LODFactor()))
		lo, hi := want[s.Name][0], want[s.Name][1]
		if ms < lo || ms > hi {
			t.Errorf("%s: Mobile render %.1f ms (total %d tris), want %.0f-%.0f", s.Name, ms, total, lo, hi)
		}
	}
}

func TestVikingDensityVariance(t *testing.T) {
	// Viking's defining property: object density varies strongly between
	// nearby locations (village blocks), giving the 2-28m cutoff spread.
	g := Build(mustSpec(t, "viking"))
	q := g.Scene.NewQuery()
	var min, max = math.Inf(1), 0.0
	for x := 60.0; x < 150; x += 8 {
		for z := 40.0; z < 95; z += 8 {
			tris := g.Scene.TrianglesWithin(q, geom.V2(x, z), 4)
			d := float64(tris) / (math.Pi * 16)
			if d < min {
				min = d
			}
			if d > max {
				max = d
			}
		}
	}
	if max/math.Max(min, 1) < 8 {
		t.Fatalf("village density ratio %.1f (min %.0f max %.0f tris/m^2), want high variance", max/min, min, max)
	}
}

func TestDSEndpointsDenserThanMiddle(t *testing.T) {
	g := Build(mustSpec(t, "ds"))
	q := g.Scene.NewQuery()
	end := g.Scene.TrianglesWithin(q, geom.V2(80, 180), 20)
	mid := g.Scene.TrianglesWithin(q, geom.V2(640, 180), 20)
	if end < mid*5 {
		t.Fatalf("DS start zone (%d tris) should dwarf mid-stage (%d tris)", end, mid)
	}
}

func TestSoccerPitchClear(t *testing.T) {
	g := Build(mustSpec(t, "soccer"))
	q := g.Scene.NewQuery()
	centre := g.Scene.TrianglesWithin(q, geom.V2(52, 70), 8)
	stands := g.Scene.TrianglesWithin(q, geom.V2(8, 70), 8)
	if centre >= stands {
		t.Fatalf("pitch centre (%d) should be sparser than stands (%d)", centre, stands)
	}
}

func TestIndoorGamesEnclosed(t *testing.T) {
	for _, name := range []string{"pool", "bowling", "corridor"} {
		g := Build(mustSpec(t, name))
		// A horizontal ray from the room centre must hit a wall, not
		// escape to the sky.
		q := g.Scene.NewQuery()
		eye := g.Scene.EyeAt(g.Scene.Bounds.Center())
		for _, dir := range []geom.Vec3{{X: 1}, {X: -1}, {Z: 1}, {Z: -1}} {
			if _, ok := g.Scene.Intersect(q, geom.Ray{Origin: eye, Direction: dir}, 0, math.Inf(1)); !ok {
				t.Errorf("%s: horizontal ray %v escaped the room", name, dir)
			}
		}
		// And a vertical ray must hit the ceiling.
		up := geom.Ray{Origin: eye, Direction: geom.V3(0, 1, 0)}
		if _, ok := g.Scene.Intersect(q, up, 0, math.Inf(1)); !ok {
			t.Errorf("%s: no ceiling", name)
		}
	}
}

func TestSpawnNotInsideObject(t *testing.T) {
	for _, s := range Catalog() {
		g := Build(s)
		q := g.Scene.NewQuery()
		ids := g.Scene.ObjectsWithin(q, nil, g.Spawn, 0.3)
		if len(ids) != 0 {
			// Walls/ceiling of indoor shells span the whole room; only
			// flag solid blockers (props near spawn).
			for _, id := range ids {
				o := g.Scene.Objects[id]
				if o.Kind == world.KindSphere || (o.Half.X < g.Scene.Bounds.Width()/2 && o.Half.Z < g.Scene.Bounds.Depth()/2) {
					t.Errorf("%s: object %d overlaps spawn", s.Name, id)
				}
			}
		}
	}
}

func TestRacingTrackInsideWorld(t *testing.T) {
	for _, name := range []string{"racing", "ds"} {
		g := Build(mustSpec(t, name))
		for i, p := range g.Track {
			if !g.Scene.Bounds.ContainsClosed(p) {
				t.Fatalf("%s: track point %d (%v) outside world", name, i, p)
			}
		}
		// The loop must be long enough to drive for minutes.
		var length float64
		for i := range g.Track {
			length += g.Track[i].Dist(g.Track[(i+1)%len(g.Track)])
		}
		if length < 500 {
			t.Fatalf("%s: track only %.0f m", name, length)
		}
	}
}

func TestAvatarKinds(t *testing.T) {
	racing := Build(mustSpec(t, "racing"))
	car := racing.Avatar(geom.V2(10, 10), 2)
	if car.Kind != world.KindBox {
		t.Fatal("racing avatar should be a car (box)")
	}
	viking := Build(mustSpec(t, "viking"))
	ava := viking.Avatar(geom.V2(10, 10), 1)
	if ava.Kind != world.KindSphere {
		t.Fatal("viking avatar should be a humanoid (sphere)")
	}
	if car.ID == ava.ID {
		t.Fatal("avatar IDs should include the player id")
	}
	if ava.ID < avatarIDBase {
		t.Fatal("avatar IDs must not collide with scene object IDs")
	}
}

func mustSpec(t *testing.T, name string) Spec {
	t.Helper()
	s, err := ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

package trace

import (
	"math"
	"testing"

	"coterie/internal/games"
)

func build(t *testing.T, name string) *games.Game {
	t.Helper()
	g, err := games.BuildByName(name)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestTraceLengthAndBounds(t *testing.T) {
	for _, name := range []string{"viking", "racing", "pool"} {
		g := build(t, name)
		tr := Generate(g, 10, 1)
		if tr.Len() != 600 {
			t.Fatalf("%s: %d ticks for 10s", name, tr.Len())
		}
		if math.Abs(tr.Seconds()-10) > 1e-9 {
			t.Fatalf("%s: Seconds() = %v", name, tr.Seconds())
		}
		for i, p := range tr.Pos {
			if !g.Scene.Bounds.ContainsClosed(p) {
				t.Fatalf("%s: tick %d at %v outside world", name, i, p)
			}
		}
	}
}

func TestMovementIsContinuous(t *testing.T) {
	// Per-frame displacement must be bounded by a plausible speed: no
	// teleporting (grid-point prefetching depends on adjacency).
	limits := map[string]float64{
		"viking": 3.0 / TickHz * 2, // walking
		"racing": 25.0 / TickHz * 2,
		"pool":   2.0 / TickHz * 2,
	}
	for name, lim := range limits {
		g := build(t, name)
		tr := Generate(g, 20, 2)
		for i := 1; i < tr.Len(); i++ {
			if d := tr.Pos[i].Dist(tr.Pos[i-1]); d > lim {
				t.Fatalf("%s: jump of %.3f m at tick %d (limit %.3f)", name, d, i, lim)
			}
		}
	}
}

func TestPlayerActuallyMoves(t *testing.T) {
	for _, name := range []string{"viking", "cts", "racing", "soccer", "corridor"} {
		g := build(t, name)
		tr := Generate(g, 30, 3)
		var dist float64
		for i := 1; i < tr.Len(); i++ {
			dist += tr.Pos[i].Dist(tr.Pos[i-1])
		}
		if dist < 5 {
			t.Fatalf("%s: only %.1f m travelled in 30 s", name, dist)
		}
	}
}

// TestBlockedStartStillWalks: pool's player 1 at seed 37 draws a start
// position that every re-draw leaves blocked; it must start on a free
// point instead of standing in its first grid cell for the whole trace.
func TestBlockedStartStillWalks(t *testing.T) {
	g := build(t, "pool")
	tr := GenerateParty(g, 2, 10, 37)[1]
	pts := tr.Points(g.Scene.Grid)
	for _, p := range pts {
		if p != pts[0] {
			return
		}
	}
	t.Fatalf("player 1 never left grid point %v in %d ticks", pts[0], len(pts))
}

func TestDeterministic(t *testing.T) {
	g := build(t, "viking")
	a := Generate(g, 5, 42)
	b := Generate(g, 5, 42)
	for i := range a.Pos {
		if a.Pos[i] != b.Pos[i] {
			t.Fatalf("trace differs at tick %d", i)
		}
	}
	c := Generate(g, 5, 43)
	same := true
	for i := range a.Pos {
		if a.Pos[i] != c.Pos[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds should give different traces")
	}
}

func TestPartyProximityOutdoor(t *testing.T) {
	// Outdoor multiplayer: players stay in close proximity (the paper's
	// premise for inter-player similarity) but never on identical paths.
	g := build(t, "viking")
	party := GenerateParty(g, 2, 30, 5)
	var sum float64
	identical := 0
	n := party[0].Len()
	for i := 0; i < n; i++ {
		d := party[0].Pos[i].Dist(party[1].Pos[i])
		sum += d
		if d < 1e-9 {
			identical++
		}
	}
	mean := sum / float64(n)
	if mean > 30 {
		t.Fatalf("mean separation %.1f m; outdoor players should stay close", mean)
	}
	if identical > n/100 {
		t.Fatalf("players coincide on %d/%d ticks; paths must differ", identical, n)
	}
}

func TestPartyRacingStaysOnTrackTogether(t *testing.T) {
	g := build(t, "racing")
	party := GenerateParty(g, 4, 30, 6)
	if len(party) != 4 {
		t.Fatalf("party size %d", len(party))
	}
	// Racers chase each other: median pairwise distance bounded.
	n := party[0].Len()
	var close int
	for i := 0; i < n; i++ {
		if party[0].Pos[i].Dist(party[1].Pos[i]) < 120 {
			close++
		}
	}
	if float64(close)/float64(n) < 0.7 {
		t.Fatalf("racers together only %d/%d ticks", close, n)
	}
}

func TestPointsSnapToGrid(t *testing.T) {
	g := build(t, "viking")
	tr := Generate(g, 5, 7)
	pts := tr.Points(g.Scene.Grid)
	if len(pts) != tr.Len() {
		t.Fatalf("points len %d", len(pts))
	}
	for i, p := range pts {
		if !g.Scene.Grid.In(p) {
			t.Fatalf("tick %d: invalid grid point %v", i, p)
		}
	}
	// Consecutive grid points are near each other (a few steps at most).
	for i := 1; i < len(pts); i++ {
		di := math.Abs(float64(pts[i].I - pts[i-1].I))
		dj := math.Abs(float64(pts[i].J - pts[i-1].J))
		if di > 4 || dj > 4 {
			t.Fatalf("grid jump at tick %d: %v -> %v", i, pts[i-1], pts[i])
		}
	}
}

func TestTraceAvoidsSolidObjects(t *testing.T) {
	g := build(t, "viking")
	tr := Generate(g, 20, 8)
	q := g.Scene.NewQuery()
	inside := 0
	for _, p := range tr.Pos {
		ids := g.Scene.ObjectsWithin(q, nil, p, 0.05)
		if len(ids) > 0 {
			inside++
		}
	}
	// Brief clips while routing around objects are tolerable; living
	// inside geometry is not.
	if frac := float64(inside) / float64(tr.Len()); frac > 0.05 {
		t.Fatalf("player inside objects %.1f%% of the time", frac*100)
	}
}

func TestIndoorPlayersIndependent(t *testing.T) {
	g := build(t, "pool")
	party := GenerateParty(g, 2, 20, 9)
	// Indoor traces must not be identical and need not be close.
	diff := 0
	for i := 0; i < party[0].Len(); i++ {
		if party[0].Pos[i] != party[1].Pos[i] {
			diff++
		}
	}
	if diff == 0 {
		t.Fatal("indoor traces identical")
	}
}

func TestRacersProgressAlongTrack(t *testing.T) {
	g := build(t, "racing")
	tr := Generate(g, 60, 10)
	// A car at ~15 m/s covers ~900 m in 60 s.
	var dist float64
	for i := 1; i < tr.Len(); i++ {
		dist += tr.Pos[i].Dist(tr.Pos[i-1])
	}
	if dist < 400 {
		t.Fatalf("car covered only %.0f m in 60 s", dist)
	}
}

func TestYawTrackFilled(t *testing.T) {
	g := build(t, "viking")
	tr := Generate(g, 10, 4)
	if len(tr.Yaw) != tr.Len() {
		t.Fatalf("yaw track %d != %d ticks", len(tr.Yaw), tr.Len())
	}
	// Yaw changes smoothly: per-tick delta bounded (no head snapping).
	for i := 1; i < tr.Len(); i++ {
		d := math.Abs(tr.Yaw[i] - tr.Yaw[i-1])
		if d > 0.2 {
			t.Fatalf("yaw jump %.3f rad at tick %d", d, i)
		}
	}
	// And it is not constant: players look around.
	min, max := tr.Yaw[0], tr.Yaw[0]
	for _, y := range tr.Yaw {
		if y < min {
			min = y
		}
		if y > max {
			max = y
		}
	}
	if max-min < 0.3 {
		t.Fatalf("yaw range %.2f rad; expected look-around", max-min)
	}
}

func TestYawAtFallback(t *testing.T) {
	g := build(t, "viking")
	tr := Generate(g, 5, 4)
	tr.Yaw = nil // e.g. loaded from an old trace file
	// Derivable from movement without panicking, including at the ends.
	_ = tr.YawAt(-1)
	_ = tr.YawAt(0)
	_ = tr.YawAt(tr.Len() - 1)
	_ = tr.YawAt(tr.Len() + 5)
}

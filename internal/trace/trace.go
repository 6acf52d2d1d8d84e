// Package trace generates and replays player movement traces through the
// virtual worlds. The paper records 10-minute traces of real play for each
// game (§4.1) and replays them for the caching study (§4.6) and the user
// study (§7.4); this package substitutes genre-specific synthetic movement
// with the properties those experiments rely on:
//
//   - continuous movement at human/vehicle speeds (so consecutive frames
//     visit adjacent grid points);
//   - genre-appropriate paths (racing lines for car games, waypoint
//     roaming for shooters, strolls for indoor games);
//   - multi-player proximity for the outdoor games (players chase or
//     follow each other closely — the premise of inter-player similarity,
//     §4.1) but never exactly identical paths (the reason Versions 1-2 of
//     the caching study get zero hits, §4.6).
package trace

import (
	"math"
	"math/rand"

	"coterie/internal/games"
	"coterie/internal/geom"
	"coterie/internal/world"
)

// TickHz is the sampling rate of traces: one sample per display frame.
const TickHz = 60

// Trace is one player's movement through the world, sampled at TickHz.
type Trace struct {
	PlayerID int
	Game     string
	// Pos has one ground position per frame tick.
	Pos []geom.Vec2
	// Yaw has one view direction (radians, 0 = +Z, positive towards +X)
	// per tick: the movement heading plus head-turn look-around. Filled
	// by Generate; empty for traces loaded from old files (use
	// HeadingAt).
	Yaw []float64
}

// YawAt returns the view yaw at a tick, deriving it from movement when the
// trace carries no explicit yaw track.
func (t *Trace) YawAt(i int) float64 {
	if i < 0 {
		i = 0
	}
	if i >= t.Len() {
		i = t.Len() - 1
	}
	if len(t.Yaw) == t.Len() {
		return t.Yaw[i]
	}
	j := i + TickHz/4
	if j >= t.Len() {
		j = t.Len() - 1
	}
	d := t.Pos[j].Sub(t.Pos[i])
	if d.Len() < 1e-9 {
		return 0
	}
	return math.Atan2(d.X, d.Z)
}

// fillYaw derives the yaw track: smoothed movement heading plus sinusoidal
// look-around (players scan their surroundings; the panoramic far-BE frame
// makes any yaw free to display, §2.2).
func (t *Trace) fillYaw(seed int64) {
	n := t.Len()
	t.Yaw = make([]float64, n)
	if n == 0 {
		return
	}
	heading := 0.0
	phase := float64(seed%628) / 100
	for i := 0; i < n; i++ {
		j := i + TickHz/4
		if j >= n {
			j = n - 1
		}
		d := t.Pos[j].Sub(t.Pos[i])
		if d.Len() > 1e-6 {
			target := math.Atan2(d.X, d.Z)
			// First-order smoothing toward the movement heading.
			heading += angleDiff(target, heading) * 0.08
		}
		look := 0.7 * math.Sin(2*math.Pi*0.18*float64(i)/TickHz+phase) *
			math.Sin(2*math.Pi*0.043*float64(i)/TickHz)
		t.Yaw[i] = heading + look
	}
}

// Len returns the number of frame ticks.
func (t *Trace) Len() int { return len(t.Pos) }

// Seconds returns the trace duration.
func (t *Trace) Seconds() float64 { return float64(len(t.Pos)) / TickHz }

// Points converts the trace to grid points under the game's grid.
func (t *Trace) Points(grid geom.Grid) []geom.GridPoint {
	pts := make([]geom.GridPoint, len(t.Pos))
	for i, p := range t.Pos {
		pts[i] = grid.Snap(p)
	}
	return pts
}

// GenerateParty produces traces for n players playing together for the
// given duration. Outdoor-genre players move in close proximity (following
// the leader or racing the same track); indoor players wander
// independently, matching the paper's observation that indoor games show
// little inter-player locality.
func GenerateParty(g *games.Game, n int, seconds float64, seed int64) []*Trace {
	traces := make([]*Trace, n)
	leader := generateOne(g, 0, seconds, seed, nil)
	traces[0] = leader
	for i := 1; i < n; i++ {
		var follow *Trace
		if g.Spec.Outdoor {
			follow = leader
		}
		traces[i] = generateOne(g, i, seconds, seed+int64(i)*7919, follow)
	}
	return traces
}

// Generate produces a single-player trace.
func Generate(g *games.Game, seconds float64, seed int64) *Trace {
	return generateOne(g, 0, seconds, seed, nil)
}

func generateOne(g *games.Game, playerID int, seconds float64, seed int64, follow *Trace) *Trace {
	ticks := int(seconds * TickHz)
	t := &Trace{PlayerID: playerID, Game: g.Spec.Name, Pos: make([]geom.Vec2, 0, ticks)}
	rng := rand.New(rand.NewSource(seed))
	switch g.Spec.Genre {
	case games.GenreRacing:
		genRacing(g, t, ticks, playerID, rng)
	case games.GenreIndoor:
		genWander(g, t, ticks, rng, wanderParams{speed: 0.8, pauseP: 0.35, hop: 3.5, start: jitter(rng, g.Spawn, 1.5)}, nil)
	case games.GenreSports:
		genWander(g, t, ticks, rng, wanderParams{speed: 2.6, pauseP: 0.06, hop: 14, start: jitter(rng, g.Spawn, 4)}, follow)
	default: // shooters and adventures roam, nearly always in motion
		genWander(g, t, ticks, rng, wanderParams{speed: 1.9, pauseP: 0.05, hop: 22, start: jitter(rng, g.Spawn, 3)}, follow)
	}
	t.fillYaw(seed)
	return t
}

func jitter(rng *rand.Rand, p geom.Vec2, r float64) geom.Vec2 {
	a := rng.Float64() * 2 * math.Pi
	d := rng.Float64() * r
	return geom.V2(p.X+d*math.Cos(a), p.Z+d*math.Sin(a))
}

// genRacing drives the track loop at car speed with lateral jitter.
// Players start staggered along the track and keep slightly different
// speeds, so they chase each other closely without identical paths.
func genRacing(g *games.Game, t *Trace, ticks, playerID int, rng *rand.Rand) {
	track := g.Track
	if len(track) == 0 {
		genWander(g, t, ticks, rng, wanderParams{speed: 8, pauseP: 0, hop: 60, start: g.Spawn}, nil)
		return
	}
	// Arc-length parameterisation of the loop.
	cum := make([]float64, len(track)+1)
	for i := 0; i < len(track); i++ {
		cum[i+1] = cum[i] + track[i].Dist(track[(i+1)%len(track)])
	}
	total := cum[len(track)]
	at := func(s float64) geom.Vec2 {
		s = math.Mod(s, total)
		if s < 0 {
			s += total
		}
		// Binary search the segment.
		lo, hi := 0, len(track)
		for lo+1 < hi {
			mid := (lo + hi) / 2
			if cum[mid] <= s {
				lo = mid
			} else {
				hi = mid
			}
		}
		a := track[lo]
		b := track[(lo+1)%len(track)]
		seg := cum[lo+1] - cum[lo]
		f := 0.0
		if seg > 0 {
			f = (s - cum[lo]) / seg
		}
		return geom.V2(a.X+(b.X-a.X)*f, a.Z+(b.Z-a.Z)*f)
	}

	speed := 17.0 + rng.Float64()*4 // m/s, ~60-75 km/h
	s := float64(playerID) * 18     // staggered grid positions
	lat := rng.Float64()*4 - 2      // racing-line offset
	for i := 0; i < ticks; i++ {
		// Slow for curves: sample heading change ahead.
		p := at(s)
		q := at(s + 5)
		heading := math.Atan2(q.Z-p.Z, q.X-p.X)
		r := at(s + 15)
		heading2 := math.Atan2(r.Z-q.Z, r.X-q.X)
		curve := math.Abs(angleDiff(heading2, heading))
		v := speed * (1 - 0.55*math.Min(curve/0.6, 1))
		s += v / TickHz
		// Lateral offset drifts slowly.
		lat += (rng.Float64() - 0.5) * 0.05
		lat = geom.Clamp(lat, -3, 3)
		nx, nz := -math.Sin(heading), math.Cos(heading)
		pos := geom.V2(p.X+nx*lat, p.Z+nz*lat)
		t.Pos = append(t.Pos, g.Scene.Bounds.ClampPoint(pos))
	}
}

func angleDiff(a, b float64) float64 {
	d := math.Mod(a-b+math.Pi, 2*math.Pi)
	if d < 0 {
		d += 2 * math.Pi
	}
	return d - math.Pi
}

type wanderParams struct {
	speed  float64 // m/s
	pauseP float64 // probability of pausing at a waypoint
	hop    float64 // typical waypoint distance
	start  geom.Vec2
}

// genWander walks between waypoints, avoiding scene objects. When follow
// is non-nil, waypoints are biased toward the leader's position at the
// corresponding time (multiplayer proximity), with an offset so paths
// never coincide.
func genWander(g *games.Game, t *Trace, ticks int, rng *rand.Rand, wp wanderParams, follow *Trace) {
	playerID := t.PlayerID
	q := g.Scene.NewQuery()
	blocked := func(p geom.Vec2) bool {
		if !g.Scene.Bounds.ContainsClosed(p) {
			return true
		}
		ids := g.Scene.ObjectsWithin(q, nil, p, 0.35)
		for _, id := range ids {
			o := &g.Scene.Objects[id]
			// Room shells (walls/ceiling) span the world; they do not
			// block walking.
			if o.Kind == world.KindBox && (o.Half.X > g.Scene.Bounds.Width()/3 || o.Half.Z > g.Scene.Bounds.Depth()/3) {
				continue
			}
			return true
		}
		return false
	}

	pos := wp.start
	for i := 0; i < 40 && blocked(pos); i++ {
		pos = jitter(rng, wp.start, 3+float64(i))
	}
	if blocked(pos) {
		// From a blocked start every step is blocked too, and the player
		// would never leave its first grid cell.
		pos = nearestFree(g.Scene.Bounds, wp.start, blocked)
	}

	if follow != nil {
		// Pursuit mode: walk the leader's trail a few seconds behind with
		// a small lateral offset — players "closely follow each other to
		// survive and defeat their enemies" (§4.1). The offset keeps the
		// paths from ever overlapping exactly (V2 of the §4.6 study finds
		// zero exact-match hits) while staying close enough that
		// similar-frame reuse across players is possible (V4 finds
		// 60-70%).
		lag := TickHz/2 + rng.Intn(TickHz*2)
		// Per-player lateral offsets keep every trail separated from the
		// leader's (and each other's) by centimetres: enough that paths
		// never coincide on the 1/32 m grid, close enough that
		// similar-frame reuse across players works.
		side := 0.06 + 0.03*float64(playerID)
		if playerID%2 == 0 {
			side = -side
		}
		for i := 0; i < ticks; i++ {
			j := i - lag
			if j < 0 {
				j = 0
			}
			if j >= follow.Len() {
				j = follow.Len() - 1
			}
			// Offset perpendicular to the leader's local direction.
			k := j + 12
			if k >= follow.Len() {
				k = follow.Len() - 1
			}
			dir := follow.Pos[k].Sub(follow.Pos[j]).Norm()
			if dir.Len() == 0 {
				dir = geom.V2(1, 0)
			}
			offset := geom.V2(-dir.Z, dir.X).Scale(side)
			target := follow.Pos[j].Add(offset)
			target = g.Scene.Bounds.ClampPoint(target)
			d := target.Sub(pos)
			step := wp.speed * 1.15 / TickHz // slightly faster to keep up
			if d.Len() > step {
				next := pos.Add(d.Norm().Scale(step))
				if !blocked(next) {
					pos = next
				} else {
					// Slide around the blocker.
					side := geom.V2(-d.Norm().Z, d.Norm().X).Scale(step)
					if cand := pos.Add(side); !blocked(cand) {
						pos = cand
					}
				}
			} else {
				pos = target
			}
			t.Pos = append(t.Pos, pos)
		}
		return
	}

	pickWaypoint := func() geom.Vec2 {
		for attempt := 0; attempt < 30; attempt++ {
			c := jitter(rng, pos, wp.hop*(0.4+rng.Float64()))
			c = g.Scene.Bounds.ClampPoint(c)
			if !blocked(c) {
				return c
			}
		}
		return pos
	}

	way := pickWaypoint()
	pause := 0
	for i := 0; i < ticks; i++ {
		if pause > 0 {
			pause--
			t.Pos = append(t.Pos, pos)
			continue
		}
		d := way.Sub(pos)
		dist := d.Len()
		step := wp.speed / TickHz
		if dist <= step {
			pos = way
			way = pickWaypoint()
			if rng.Float64() < wp.pauseP {
				pause = TickHz/4 + rng.Intn(TickHz/2)
			}
		} else {
			next := pos.Add(d.Norm().Scale(step))
			if blocked(next) {
				way = pickWaypoint() // walk around: choose another target
			} else {
				pos = next
			}
		}
		t.Pos = append(t.Pos, pos)
	}
}

// nearestFree returns the first unblocked point of c clamped to bounds and
// then of rings of growing radius (0.25 m apart) around c, each point
// clamped, scanning each ring at about 0.25 m spacing. It draws no random numbers, so a trace that needs it
// leaves every other trace's draws alone. When nothing in bounds is free it
// returns c clamped.
func nearestFree(bounds geom.Rect, c geom.Vec2, blocked func(geom.Vec2) bool) geom.Vec2 {
	const step = 0.25
	maxR := math.Hypot(bounds.Width(), bounds.Depth())
	for r := 0.0; r <= maxR; r += step {
		n := max(1, int(math.Ceil(2*math.Pi*r/step)))
		for k := 0; k < n; k++ {
			a := 2 * math.Pi * float64(k) / float64(n)
			p := bounds.ClampPoint(geom.V2(c.X+r*math.Cos(a), c.Z+r*math.Sin(a)))
			if !blocked(p) {
				return p
			}
		}
	}
	return bounds.ClampPoint(c)
}

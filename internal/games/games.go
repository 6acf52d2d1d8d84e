// Package games procedurally generates the nine VR apps of the paper's
// study (Table 2/3) as world.Scenes. The Unity asset-store projects are not
// available, so each generator reproduces what the experiments actually
// depend on: the world dimension and grid spacing of Table 3, and the
// spatial distribution of object (triangle) density that drives the
// adaptive cutoff scheme, the quadtree shape, and the Mobile-baseline
// render times.
//
// Density design notes (see DESIGN.md for the calibration math):
//
//   - The near-BE triangle budget on the Pixel 2 profile is ~660k
//     triangles (12.7 ms at 60k tris/ms). A region of local density D
//     tris/m^2 therefore gets cutoff radius r = sqrt(660k / (pi*D)).
//   - Viking Village mixes dense village blocks (~30k tris/m^2, r~2.7m)
//     with sparse outskirts (~340 tris/m^2, r~25m) at a few-metre block
//     granularity: the paper's 2-28 m cutoff spread and deep quadtree.
//   - DS is dense at the start/finish straights and sparse in between;
//     Racing Mountain has trackside forest arcs: their wide cutoff spreads
//     (10-100 m and 10-180 m) come from that layout.
package games

import (
	"fmt"
	"math"
	"math/rand"

	"coterie/internal/geom"
	"coterie/internal/world"
)

// Genre drives the movement model used in traces.
type Genre int

const (
	// GenreRacing is a car game driving a closed track (Racing, DS).
	GenreRacing Genre = iota
	// GenreShooter is free roaming with engagements (Viking, FPS).
	GenreShooter
	// GenreAdventure is waypoint exploration (CTS, Corridor).
	GenreAdventure
	// GenreSports is field play around a pitch (Soccer).
	GenreSports
	// GenreIndoor is a small-room stroll (Pool, Bowling).
	GenreIndoor
)

// walkStep is the grid spacing of the walking-scale games (1/32 m: Table 3
// grid-point counts are exactly dimension / (1/32)^2).
const walkStep = 1.0 / 32

// driveStep is the grid spacing of the two car games.
const driveStep = 0.394

// PaperStats records Table 3's published values for comparison in
// EXPERIMENTS.md.
type PaperStats struct {
	GridPointsM float64 // millions
	DepthAvg    float64
	DepthMax    int
	LeafRegions int
	ProcHours   float64
}

// Spec describes one of the nine study apps.
type Spec struct {
	Name     string // short key, e.g. "viking"
	FullName string
	Genre    Genre
	Outdoor  bool
	Width    float64
	Depth    float64
	GridStep float64
	Seed     int64
	Paper    PaperStats
}

// Game is a built, ready-to-render instance of a study app.
type Game struct {
	Spec  Spec
	Scene *world.Scene
	// Track is the driving line for racing games (a closed loop of
	// ground-plane waypoints); nil for non-racing games.
	Track []geom.Vec2
	// Spawn is the player start position.
	Spawn geom.Vec2
}

// Catalog returns the nine apps of Table 2/3 in the paper's order.
func Catalog() []Spec {
	return []Spec{
		{
			Name: "racing", FullName: "Racing Mountain", Genre: GenreRacing, Outdoor: true,
			Width: 1090, Depth: 1096, GridStep: driveStep, Seed: 101,
			Paper: PaperStats{GridPointsM: 7.70, DepthAvg: 3.70, DepthMax: 4, LeafRegions: 136, ProcHours: 1.25},
		},
		{
			Name: "ds", FullName: "DS", Genre: GenreRacing, Outdoor: true,
			Width: 1286, Depth: 361, GridStep: driveStep, Seed: 102,
			Paper: PaperStats{GridPointsM: 3.00, DepthAvg: 3.80, DepthMax: 4, LeafRegions: 160, ProcHours: 1.66},
		},
		{
			Name: "viking", FullName: "Viking Village", Genre: GenreShooter, Outdoor: true,
			Width: 187, Depth: 130, GridStep: walkStep, Seed: 103,
			Paper: PaperStats{GridPointsM: 24.90, DepthAvg: 5.87, DepthMax: 6, LeafRegions: 2944, ProcHours: 6.60},
		},
		{
			Name: "cts", FullName: "CTS Procedural World", Genre: GenreAdventure, Outdoor: true,
			Width: 512, Depth: 512, GridStep: walkStep, Seed: 104,
			Paper: PaperStats{GridPointsM: 268.40, DepthAvg: 3.81, DepthMax: 4, LeafRegions: 235, ProcHours: 1.30},
		},
		{
			Name: "fps", FullName: "FPS", Genre: GenreShooter, Outdoor: true,
			Width: 71, Depth: 70, GridStep: walkStep, Seed: 105,
			Paper: PaperStats{GridPointsM: 5.09, DepthAvg: 3.92, DepthMax: 4, LeafRegions: 208, ProcHours: 1.10},
		},
		{
			Name: "soccer", FullName: "Soccer", Genre: GenreSports, Outdoor: true,
			Width: 104, Depth: 140, GridStep: walkStep, Seed: 106,
			Paper: PaperStats{GridPointsM: 14.90, DepthAvg: 3.88, DepthMax: 4, LeafRegions: 136, ProcHours: 1.18},
		},
		{
			Name: "pool", FullName: "Pool", Genre: GenreIndoor, Outdoor: false,
			Width: 10, Depth: 13, GridStep: walkStep, Seed: 107,
			Paper: PaperStats{GridPointsM: 0.13, DepthAvg: 2.68, DepthMax: 3, LeafRegions: 19, ProcHours: 0.14},
		},
		{
			Name: "bowling", FullName: "Bowling", Genre: GenreIndoor, Outdoor: false,
			Width: 34, Depth: 41, GridStep: walkStep, Seed: 108,
			Paper: PaperStats{GridPointsM: 1.43, DepthAvg: 2.00, DepthMax: 2, LeafRegions: 16, ProcHours: 0.13},
		},
		{
			Name: "corridor", FullName: "Corridor", Genre: GenreAdventure, Outdoor: false,
			Width: 50, Depth: 30, GridStep: walkStep, Seed: 109,
			Paper: PaperStats{GridPointsM: 1.54, DepthAvg: 2.80, DepthMax: 3, LeafRegions: 40, ProcHours: 0.29},
		},
	}
}

// LODFactor returns the game-specific level-of-detail effectiveness: the
// engine draws total/LODFactor triangles beyond the generic culling factor
// of the device model. CTS ships an aggressive terrain LOD system (that is
// what the "Complete Terrain Shader" asset is for), and the huge open
// worlds of the car games LOD well; compact scenes draw closer to their
// full detail.
func (s Spec) LODFactor() float64 {
	switch s.Name {
	case "cts":
		return 1.7
	case "racing", "ds":
		return 2.3
	case "viking":
		return 1.2
	default:
		return 1.0
	}
}

// ByName looks a spec up by its short key.
func ByName(name string) (Spec, error) {
	for _, s := range Catalog() {
		if s.Name == name {
			return s, nil
		}
	}
	return Spec{}, fmt.Errorf("games: unknown game %q", name)
}

// Build generates the scene for a spec. Generation is deterministic in
// Spec.Seed.
func Build(spec Spec) *Game {
	switch spec.Name {
	case "viking":
		return buildViking(spec)
	case "cts":
		return buildCTS(spec)
	case "racing":
		return buildRacingMt(spec)
	case "ds":
		return buildDS(spec)
	case "fps":
		return buildFPS(spec)
	case "soccer":
		return buildSoccer(spec)
	case "pool":
		return buildPool(spec)
	case "bowling":
		return buildBowling(spec)
	case "corridor":
		return buildCorridor(spec)
	default:
		panic(fmt.Sprintf("games: no generator for %q", spec.Name))
	}
}

// BuildByName is a convenience wrapper over ByName + Build.
func BuildByName(name string) (*Game, error) {
	spec, err := ByName(name)
	if err != nil {
		return nil, err
	}
	return Build(spec), nil
}

// Avatar returns the foreground-interaction object representing a remote
// player at the given position: a car for racing games, a humanoid
// otherwise. FI objects are rendered locally by every client from the
// synchronised state (§5.1 task 1).
func (g *Game) Avatar(pos geom.Vec2, playerID int) world.Object {
	if g.Spec.Genre == GenreRacing {
		return world.Object{
			ID: avatarIDBase + playerID, Kind: world.KindBox,
			Center:    geom.V3(pos.X, 0.7, pos.Z),
			Half:      geom.V3(1.0, 0.7, 2.2),
			Triangles: 40_000,
			Shade:     0.85,
			Pattern:   uint8(playerID),
		}
	}
	return world.Object{
		ID: avatarIDBase + playerID, Kind: world.KindSphere,
		Center:    geom.V3(pos.X, 1.1, pos.Z),
		Radius:    0.45,
		Triangles: 25_000,
		Shade:     0.9,
		Pattern:   uint8(playerID),
	}
}

// avatarIDBase keeps FI object IDs disjoint from scene object IDs.
const avatarIDBase = 1 << 24

// scatterer accumulates procedurally placed objects.
type scatterer struct {
	rng  *rand.Rand
	objs []world.Object
	// keepClear are discs objects must not overlap (spawn areas, tracks).
	keepClear []clearZone
	// smoothProps marks scattered objects as low-texture surfaces
	// (indoor furniture and fittings).
	smoothProps bool
}

type clearZone struct {
	p geom.Vec2
	r float64
}

func newScatterer(seed int64) *scatterer {
	return &scatterer{rng: rand.New(rand.NewSource(seed))}
}

func (sc *scatterer) clear(p geom.Vec2, r float64) {
	sc.keepClear = append(sc.keepClear, clearZone{p, r})
}

// clearPolyline keeps a band around a path free of objects.
func (sc *scatterer) clearPolyline(path []geom.Vec2, r float64) {
	for i := 0; i < len(path); i++ {
		a := path[i]
		b := path[(i+1)%len(path)]
		segs := int(a.Dist(b)/r) + 1
		for s := 0; s <= segs; s++ {
			t := float64(s) / float64(segs)
			sc.clear(geom.V2(a.X+(b.X-a.X)*t, a.Z+(b.Z-a.Z)*t), r)
		}
	}
}

func (sc *scatterer) blocked(p geom.Vec2, objRadius float64) bool {
	for _, z := range sc.keepClear {
		if p.Dist(z.p) < z.r+objRadius {
			return true
		}
	}
	return false
}

// fill tiles the region with cells of the given size and places objects in
// each cell to meet the target triangle density returned by density(x, z)
// in tris/m^2. Shapes alternate between props (spheres) and structures
// (boxes); triangle counts are split across 1-3 objects per cell.
func (sc *scatterer) fill(region geom.Rect, cell float64, density func(x, z float64) float64) {
	for z := region.MinZ; z < region.MaxZ; z += cell {
		for x := region.MinX; x < region.MaxX; x += cell {
			cw := math.Min(cell, region.MaxX-x)
			cd := math.Min(cell, region.MaxZ-z)
			cx, cz := x+cw/2, z+cd/2
			tris := density(cx, cz) * cw * cd
			if tris < 50 {
				continue
			}
			// Dense cells hold one large compound asset (a house prefab,
			// a stand section), matching Unity's asset granularity;
			// sparse cells scatter a few small props. Coarse granularity
			// in dense areas keeps the near-BE object set stable as the
			// player moves, which the frame cache's criterion 3 depends
			// on (§5.3).
			var n int
			switch {
			case tris > 150_000:
				n = 1
			case tris > 60_000:
				n = 1 + sc.rng.Intn(2)
			default:
				n = 1 + sc.rng.Intn(3)
			}
			for i := 0; i < n; i++ {
				share := tris / float64(n)
				px := x + sc.rng.Float64()*cw
				pz := z + sc.rng.Float64()*cd
				sc.place(geom.V2(px, pz), int(share), cw)
			}
		}
	}
}

// place adds one object of roughly the given triangle count near p. Dense
// cells get buildings (boxes), sparse ones get props (spheres).
func (sc *scatterer) place(p geom.Vec2, tris int, cell float64) {
	if tris < 50 {
		return
	}
	id := len(sc.objs)
	if tris > 60_000 {
		// Structure: a building-scale box.
		half := geom.V3(
			1.5+sc.rng.Float64()*math.Min(cell*0.4, 6),
			1.5+sc.rng.Float64()*4,
			1.5+sc.rng.Float64()*math.Min(cell*0.4, 6),
		)
		if sc.blocked(p, math.Max(half.X, half.Z)) {
			return
		}
		sc.objs = append(sc.objs, world.Object{
			ID: id, Kind: world.KindBox,
			Center:    geom.V3(p.X, half.Y, p.Z),
			Half:      half,
			Triangles: tris,
			Shade:     0.25 + sc.rng.Float64()*0.6,
			Pattern:   uint8(sc.rng.Intn(8)),
			Smooth:    sc.smoothProps,
		})
		return
	}
	// Prop: tree, rock, pin, person.
	r := 0.3 + sc.rng.Float64()*1.6
	if sc.blocked(p, r) {
		return
	}
	sc.objs = append(sc.objs, world.Object{
		ID: id, Kind: world.KindSphere,
		Center:    geom.V3(p.X, r*0.9, p.Z),
		Radius:    r,
		Triangles: tris,
		Shade:     0.25 + sc.rng.Float64()*0.6,
		Pattern:   uint8(sc.rng.Intn(8)),
		Smooth:    sc.smoothProps,
	})
}

// box adds an explicit structure (walls, tables, stands).
func (sc *scatterer) box(center geom.Vec3, half geom.Vec3, tris int, shade float64) {
	sc.objs = append(sc.objs, world.Object{
		ID: len(sc.objs), Kind: world.KindBox,
		Center: center, Half: half, Triangles: tris,
		Shade: shade, Pattern: uint8(sc.rng.Intn(8)),
	})
}

// smoothBox adds a plain-surfaced structure (painted walls, ceilings).
func (sc *scatterer) smoothBox(center geom.Vec3, half geom.Vec3, tris int, shade float64) {
	sc.box(center, half, tris, shade)
	sc.objs[len(sc.objs)-1].Smooth = true
}

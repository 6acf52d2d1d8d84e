package world_test

import (
	"math"
	"math/rand"
	"testing"

	"coterie/internal/games"
	"coterie/internal/geom"
	"coterie/internal/world"
)

// The binned gather against the cell-list walk on real games: viking's
// thousands of scattered objects, racing's long sight lines, and pool's
// room-sized boxes around the eye, whose frames have objects at exactly
// equal distances (so candidate order is visible in the pixels). Every
// column of a full 256 x 128 panorama is checked for candidates at three
// eyes and far-BE, near-BE and whole windows; a 64 x 32 panorama per game
// is also checked row by row against Scene.Intersect.
func TestGatherMatchesCellListWalkOnGames(t *testing.T) {
	for _, name := range []string{"viking", "pool", "racing"} {
		g, err := games.BuildByName(name)
		if err != nil {
			t.Fatal(err)
		}
		s := g.Scene
		rng := rand.New(rand.NewSource(80))
		bd := s.Bounds
		for e := 0; e < 3; e++ {
			eye := s.EyeAt(geom.V2(bd.MinX+rng.Float64()*bd.Width(), bd.MinZ+rng.Float64()*bd.Depth()))
			cut := 2 + rng.Float64()*20
			for _, win := range [][2]float64{{cut, math.Inf(1)}, {0, cut}, {0, math.Inf(1)}} {
				world.CheckFrame(t, s, eye, win[0], win[1], 256, 128, 2, false)
			}
			if e == 0 {
				world.CheckFrame(t, s, eye, cut, math.Inf(1), 64, 32, 1, true)
			}
		}
	}
}

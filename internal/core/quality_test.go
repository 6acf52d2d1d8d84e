package core

import (
	"math"
	"math/rand"
	"testing"

	"coterie/internal/games"
	"coterie/internal/geom"
	"coterie/internal/ssim"
)

// TestDistThreshQualityShare guards the similarity cache's quality promise
// (§5.3): a far-BE frame cached at p may be displayed anywhere in p's leaf
// within the leaf's DistThresh, because the offline step measured SSIM above
// ssim.GoodThreshold at that displacement. For a fixed seeded sample of
// leaves it renders the far BE at a point p in the leaf and at a point q
// U(0,1)·DistThresh away in a random direction, inside the same leaf, with
// the thresholds a server prepares (the default 256×128 renderer), and
// counts the pairs at or below ssim.GoodThreshold. The counts are pinned at
// their measured values: a change that makes the served thresholds break
// the promise more often fails here; one that lowers a count re-pins it.
func TestDistThreshQualityShare(t *testing.T) {
	const samples = 40
	for _, tc := range []struct {
		game   string
		maxBad int // pairs at or below ssim.GoodThreshold, of samples
	}{
		{"viking", 14}, // 35 %
		{"pool", 0},
	} {
		spec, err := games.ByName(tc.game)
		if err != nil {
			t.Fatal(err)
		}
		// SizeSamples only sizes the frame model; thresholds are as served.
		env, err := PrepareEnv(spec, EnvOptions{SizeSamples: 1})
		if err != nil {
			t.Fatal(err)
		}
		m, r := env.Map, env.Renderer
		rng := rand.New(rand.NewSource(11))
		bad, minS := 0, 1.0
		for n := 0; n < samples; {
			reg := &m.Regions[rng.Intn(len(m.Regions))]
			b := reg.Bounds
			p := geom.V2(b.MinX+rng.Float64()*b.Width(), b.MinZ+rng.Float64()*b.Depth())
			d, a := rng.Float64()*reg.DistThresh, rng.Float64()*2*math.Pi
			q := geom.V2(p.X+d*math.Cos(a), p.Z+d*math.Sin(a))
			if !b.Contains(q) {
				continue // lookups never cross leaves: draw another pair
			}
			n++
			fp := r.Panorama(m.Scene.EyeAt(p), reg.Radius, math.Inf(1), nil)
			fq := r.Panorama(m.Scene.EyeAt(q), reg.Radius, math.Inf(1), nil)
			s, err := ssim.Mean(fp, fq)
			r.ReleaseGray(fp)
			r.ReleaseGray(fq)
			if err != nil {
				t.Fatal(err)
			}
			if s <= ssim.GoodThreshold {
				bad++
			}
			minS = math.Min(minS, s)
		}
		t.Logf("%s: %d of %d pairs at or below SSIM %.2f (min %.3f)", tc.game, bad, samples, ssim.GoodThreshold, minS)
		if bad > tc.maxBad {
			t.Errorf("%s: %d of %d similar-hit displacements at or below SSIM %.2f, pinned at %d",
				tc.game, bad, samples, ssim.GoodThreshold, tc.maxBad)
		}
	}
}

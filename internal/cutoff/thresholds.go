package cutoff

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"coterie/internal/geom"
	"coterie/internal/par"
	"coterie/internal/render"
	"coterie/internal/ssim"
)

// ThresholdConfig controls the offline derivation of per-leaf cache
// distance thresholds (§5.3): for each leaf region, binary-search the
// largest displacement d (starting from 32 m downwards) such that two far-BE
// frames rendered d apart still have SSIM above the quality bar, then take
// the minimum over sampled grid points.
type ThresholdConfig struct {
	// Samples is the number of grid points sampled per leaf region.
	Samples int
	// Seed makes sampling deterministic.
	Seed int64
}

// DefaultThresholdConfig mirrors the paper's settings with K samples.
func DefaultThresholdConfig() ThresholdConfig {
	return ThresholdConfig{Samples: 3, Seed: 7}
}

// The threshold search runs from maxThresh (paper: 32 m) down to
// minThresh, below which caching similar frames is pointless (one grid
// step); a displacement qualifies while its far-BE SSIM stays above
// ssim.GoodThreshold (paper: 0.9).
const maxThresh, minThresh float64 = 32, 0.03

// DeriveThresholds fills Region.DistThresh for every leaf by measuring
// far-BE frame similarity with the renderer. This is the faithful (and
// expensive) offline procedure; CalibrateThresholds is the sampled variant
// for large worlds.
func DeriveThresholds(m *Map, r *render.Renderer, cfg ThresholdConfig) error {
	return deriveSome(m, r, cfg, allLeaves(m))
}

// CalibrateThresholds derives thresholds exactly on sampleLeaves randomly
// chosen leaf regions, fits the observed threshold-to-cutoff-radius ratio,
// and extrapolates it to the remaining leaves. The parallax geometry behind
// the ratio: pixel displacement in a far-BE frame scales with
// (viewpoint displacement / cutoff radius), so the SSIM-preserving
// displacement grows about linearly with the radius.
func CalibrateThresholds(m *Map, r *render.Renderer, sampleLeaves int, cfg ThresholdConfig) error {
	if len(m.Regions) == 0 {
		return fmt.Errorf("cutoff: no regions")
	}
	if sampleLeaves >= len(m.Regions) {
		return DeriveThresholds(m, r, cfg)
	}
	rng := rand.New(rand.NewSource(cfg.Seed ^ 0x5eed))
	perm := rng.Perm(len(m.Regions))[:sampleLeaves]
	sort.Ints(perm)
	if err := deriveSome(m, r, cfg, perm); err != nil {
		return err
	}
	// Fit the median threshold/radius ratio over the sampled leaves.
	ratios := make([]float64, 0, sampleLeaves)
	for _, i := range perm {
		reg := &m.Regions[i]
		if reg.Radius > 0 {
			ratios = append(ratios, reg.DistThresh/reg.Radius)
		}
	}
	if len(ratios) == 0 {
		return fmt.Errorf("cutoff: no usable calibration samples")
	}
	sort.Float64s(ratios)
	ratio := ratios[len(ratios)/2]
	sampled := make(map[int]bool, sampleLeaves)
	for _, i := range perm {
		sampled[i] = true
	}
	for i := range m.Regions {
		if sampled[i] {
			continue
		}
		reg := &m.Regions[i]
		reg.DistThresh = geom.Clamp(ratio*reg.Radius, minThresh, maxThresh)
	}
	return nil
}

func allLeaves(m *Map) []int {
	idx := make([]int, len(m.Regions))
	for i := range idx {
		idx[i] = i
	}
	return idx
}

// deriveSome derives DistThresh for the given leaf indices. Leaves are
// independent of one another, so they fan out across workers; each leaf owns
// an rng derived from cfg.Seed and its region index (the binary search draws
// a data-dependent number of values, so a shared stream would make results
// depend on worker scheduling).
func deriveSome(m *Map, r *render.Renderer, cfg ThresholdConfig, leaves []int) error {
	if cfg.Samples < 1 {
		return fmt.Errorf("cutoff: Samples must be >= 1")
	}
	par.For(len(leaves), func(i int) {
		li := leaves[i]
		reg := &m.Regions[li]
		rng := rand.New(rand.NewSource(leafSeed(cfg.Seed, li)))
		best := math.Inf(1)
		for s := 0; s < cfg.Samples; s++ {
			p := geom.V2(
				reg.Bounds.MinX+rng.Float64()*reg.Bounds.Width(),
				reg.Bounds.MinZ+rng.Float64()*reg.Bounds.Depth(),
			)
			d := m.thresholdAt(r, rng, reg, p)
			if d < best {
				best = d
			}
		}
		reg.DistThresh = best
	})
	return nil
}

// leafSeed mixes the config seed with a leaf index into an independent
// stream seed (splitmix64-style finalizer).
func leafSeed(seed int64, leaf int) int64 {
	h := uint64(seed) + uint64(leaf)*0x9E3779B97F4A7C15
	h ^= h >> 30
	h *= 0xBF58476D1CE4E5B9
	h ^= h >> 27
	h *= 0x94D049BB133111EB
	h ^= h >> 31
	return int64(h)
}

// thresholdAt binary-searches the largest displacement at p that keeps
// far-BE SSIM above the target, staying inside the leaf region.
func (m *Map) thresholdAt(r *render.Renderer, rng *rand.Rand, reg *Region, p geom.Vec2) float64 {
	base := r.Panorama(m.Scene.EyeAt(p), reg.Radius, math.Inf(1), nil)

	similarAt := func(d float64) bool {
		// Try a few directions; the displacement must stay in the leaf
		// (lookups never cross leaf regions, §5.3 criterion 2).
		for attempt := 0; attempt < 6; attempt++ {
			a := rng.Float64() * 2 * math.Pi
			q := geom.V2(p.X+d*math.Cos(a), p.Z+d*math.Sin(a))
			if !reg.Bounds.Contains(q) {
				continue
			}
			other := r.Panorama(m.Scene.EyeAt(q), reg.Radius, math.Inf(1), nil)
			s, err := ssim.Mean(base, other)
			if err != nil {
				return false
			}
			return s > ssim.GoodThreshold
		}
		// Displacement does not fit in the leaf: too large to matter.
		return false
	}

	// The paper binary-searches "starting from 32 downwards".
	hi := math.Min(maxThresh, math.Max(reg.Bounds.Width(), reg.Bounds.Depth()))
	lo := minThresh
	if hi <= lo {
		return minThresh
	}
	if similarAt(hi) {
		return hi
	}
	if !similarAt(lo) {
		return minThresh
	}
	for i := 0; i < 7 && hi-lo > math.Max(minThresh, 0.02); i++ {
		mid := (lo + hi) / 2
		if similarAt(mid) {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo
}

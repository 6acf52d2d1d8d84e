// Cutoffgen is the offline preprocessing tool (§6, the paper's 1200-line
// C# module): it runs the adaptive cutoff scheme over a game's virtual
// world, derives the per-leaf cache distance thresholds, and prints the
// resulting partition.
//
// Usage:
//
//	cutoffgen -game viking            # summary
//	cutoffgen -game viking -dump      # every leaf region
//	cutoffgen -game viking -k 10      # sampling parameter sweep
package main

import (
	"flag"
	"fmt"
	"log"
	"sort"
	"time"

	"coterie/internal/cutoff"
	"coterie/internal/device"
	"coterie/internal/games"
	"coterie/internal/render"
)

func main() {
	game := flag.String("game", "viking", "game to preprocess")
	k := flag.Int("k", 10, "locations sampled per region (paper: 10)")
	dump := flag.Bool("dump", false, "print every leaf region")
	thresholds := flag.Bool("thresholds", true, "derive cache distance thresholds (needs rendering)")
	flag.Parse()

	spec, err := games.ByName(*game)
	if err != nil {
		log.Fatalf("cutoffgen: %v", err)
	}
	g := games.Build(spec)
	prof := device.Pixel2()

	params := cutoff.DefaultParams()
	params.K = *k
	start := time.Now()
	m, err := cutoff.Compute(g.Scene, prof.NearBERenderMs, params)
	if err != nil {
		log.Fatalf("cutoffgen: %v", err)
	}
	fmt.Printf("%s: %.0fx%.0f m, %.2fM grid points\n",
		spec.FullName, spec.Width, spec.Depth, float64(g.Scene.Grid.Points())/1e6)
	fmt.Printf("quadtree: %d leaf regions, depth %.2f avg / %d max, %d cutoff calculations, %v\n",
		m.Stats.LeafCount, m.Stats.DepthAvg, m.Stats.DepthMax, m.Stats.CutoffCalcs,
		time.Since(start).Round(time.Millisecond))
	fmt.Printf("paper (Table 3): %d leaves, depth %.2f/%d\n",
		spec.Paper.LeafRegions, spec.Paper.DepthAvg, spec.Paper.DepthMax)

	if *thresholds {
		r := render.New(g.Scene, render.DefaultConfig())
		tstart := time.Now()
		if err := cutoff.CalibrateThresholds(m, r, 4, cutoff.DefaultThresholdConfig()); err != nil {
			log.Fatalf("cutoffgen: thresholds: %v", err)
		}
		fmt.Printf("distance thresholds derived in %v\n", time.Since(tstart).Round(time.Millisecond))
	}

	radii := make([]float64, 0, len(m.Regions))
	for _, reg := range m.Regions {
		radii = append(radii, reg.Radius)
	}
	sort.Float64s(radii)
	q := func(p float64) float64 { return radii[int(p*float64(len(radii)-1))] }
	fmt.Printf("cutoff radii: min %.1f, p50 %.1f, max %.1f m\n", radii[0], q(0.5), radii[len(radii)-1])

	if *dump {
		fmt.Printf("%6s %8s %8s %10s %10s %12s\n", "id", "depth", "radius", "thresh", "density", "bounds")
		for _, reg := range m.Regions {
			fmt.Printf("%6d %8d %8.2f %10.3f %10.0f (%.0f,%.0f)-(%.0f,%.0f)\n",
				reg.ID, reg.Depth, reg.Radius, reg.DistThresh, reg.TriDensity,
				reg.Bounds.MinX, reg.Bounds.MinZ, reg.Bounds.MaxX, reg.Bounds.MaxZ)
		}
	}
}

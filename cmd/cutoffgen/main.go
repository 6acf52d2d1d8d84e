// Cutoffgen is the offline preprocessing tool (§6, the paper's 1200-line
// C# module): it runs the adaptive cutoff scheme over a game's virtual
// world and prints the resulting partition with each leaf's cache distance
// threshold. The map is built by core.PrepareEnv, the same step
// coterie-server, coterie-client and the benchmark run, so the regions and
// thresholds it prints are the ones they use at their default 256x128
// panorama. At the default -k those thresholds are the per-leaf table
// stored in internal/cutoff/thresholds/ (derived once, offline: `make
// thresholds`); any other -k changes the map, and PrepareEnv calibrates
// its thresholds afresh.
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

	"coterie/internal/core"
	"coterie/internal/cutoff"
	"coterie/internal/games"
)

func main() {
	game := flag.String("game", "viking", "game to preprocess")
	k := flag.Int("k", 10, "locations sampled per region (paper: 10)")
	dump := flag.Bool("dump", false, "print every leaf region")
	flag.Parse()

	spec, err := games.ByName(*game)
	if err != nil {
		log.Fatalf("cutoffgen: %v", err)
	}
	params := cutoff.DefaultParams()
	params.K = *k
	start := time.Now()
	env, err := core.PrepareEnv(spec, core.EnvOptions{CutoffParams: params})
	if err != nil {
		log.Fatalf("cutoffgen: %v", err)
	}
	m := env.Map
	fmt.Printf("%s: %.0fx%.0f m, %.2fM grid points\n",
		spec.FullName, spec.Width, spec.Depth, float64(env.Game.Scene.Grid.Points())/1e6)
	fmt.Printf("quadtree: %d leaf regions, depth %.2f avg / %d max, %d cutoff calculations, %v\n",
		m.Stats.LeafCount, m.Stats.DepthAvg, m.Stats.DepthMax, m.Stats.CutoffCalcs,
		m.Stats.ProcTime.Round(time.Millisecond))
	fmt.Printf("paper (Table 3): %d leaves, depth %.2f/%d\n",
		spec.Paper.LeafRegions, spec.Paper.DepthAvg, spec.Paper.DepthMax)
	fmt.Printf("prepared (cutoff map, distance thresholds, frame sizes) in %v\n",
		time.Since(start).Round(time.Millisecond))

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

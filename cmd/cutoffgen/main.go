// Cutoffgen is the offline preprocessing tool (§6, the paper's 1200-line
// C# module): it runs the adaptive cutoff scheme over a game's virtual
// world (cutoff.Compute), derives each leaf's cache distance threshold as
// servers use them (3 sampled leaves at 256x128), and prints the partition.
// coterie-server, coterie-client and the benchmark do not run this step:
// core.PrepareEnv loads its output from the table stored for the game in
// internal/cutoff/thresholds/. Cutoffgen says whether that table still holds
// what it just computed, and names `make thresholds`, which rewrites the
// tables, when it does not. Any -k other than 10 is another map than the
// stored one.
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
	flag.Parse()

	spec, err := games.ByName(*game)
	if err != nil {
		log.Fatalf("cutoffgen: %v", err)
	}
	params := cutoff.DefaultParams()
	params.K = *k
	g := games.Build(spec)
	rt := device.Pixel2().NearBERenderMs
	m, err := cutoff.Compute(g.Scene, rt, params)
	if err != nil {
		log.Fatalf("cutoffgen: %v", err)
	}
	start := time.Now()
	if err := cutoff.CalibrateDefault(m); err != nil {
		log.Fatalf("cutoffgen: %v", err)
	}
	fmt.Printf("%s: %.0fx%.0f m, %.2fM grid points\n",
		spec.FullName, spec.Width, spec.Depth, float64(g.Scene.Grid.Points())/1e6)
	fmt.Printf("quadtree: %d leaf regions, depth %.2f avg / %d max, %d cutoff calculations, %v\n",
		m.Stats.LeafCount, m.Stats.DepthAvg, m.Stats.DepthMax, m.Stats.CutoffCalcs,
		m.Stats.ProcTime.Round(time.Millisecond))
	fmt.Printf("paper (Table 3): %d leaves, depth %.2f/%d\n",
		spec.Paper.LeafRegions, spec.Paper.DepthAvg, spec.Paper.DepthMax)
	cfg := render.DefaultConfig()
	fmt.Printf("distance thresholds calibrated at %dx%d in %v\n", cfg.W, cfg.H, time.Since(start).Round(time.Millisecond))

	// What PrepareEnv would load instead of this run.
	stored, err := cutoff.Load(spec.Name, g.Scene, rt, params)
	if stored != nil {
		var ok bool
		if ok, err = cutoff.LoadThresholds(spec.Name, stored); !ok {
			stored = nil
		}
	}
	switch {
	case err != nil:
		fmt.Printf("stored table: %v; run `make thresholds`\n", err)
	case stored == nil && params != cutoff.DefaultParams():
		fmt.Printf("stored table: holds the map at -k %d, not this one\n", cutoff.DefaultParams().K)
	case stored == nil || !stored.Equal(m):
		fmt.Printf("stored table: stale, it does not hold this output; run `make thresholds`\n")
	default:
		fmt.Printf("stored table: holds this output; servers and clients load it instead of running this step\n")
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

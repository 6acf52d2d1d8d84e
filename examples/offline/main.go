// Offline walks through the per-app offline preprocessing a developer
// runs to port a game to Coterie (§6): the adaptive cutoff scheme, the
// cache distance thresholds, the stored copy of both that servers and
// clients load, and a look at how the near/far split behaves at a concrete
// viewpoint.
package main

import (
	"fmt"
	"log"
	"math"
	"os"

	"coterie/internal/codec"
	"coterie/internal/core"
	"coterie/internal/cutoff"
	"coterie/internal/device"
	"coterie/internal/games"
	"coterie/internal/img"
	"coterie/internal/render"
	"coterie/internal/ssim"
)

func main() {
	spec, err := games.ByName("fps")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("porting %s to Coterie...\n\n", spec.FullName)

	// Step 1: the offline step itself, as cmd/cutoffgen runs it: the
	// adaptive cutoff scheme and each leaf's cache distance threshold.
	g := games.Build(spec)
	m, err := cutoff.Compute(g.Scene, device.Pixel2().NearBERenderMs, cutoff.DefaultParams())
	if err != nil {
		log.Fatal(err)
	}
	if err := cutoff.CalibrateThresholds(m, render.New(g.Scene, render.DefaultConfig()),
		cutoff.DefaultSampleLeaves, cutoff.DefaultThresholdConfig()); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("step 1: adaptive cutoff scheme\n")
	fmt.Printf("  %d leaf regions (quadtree depth %.1f avg / %d max) computed in %v\n",
		m.Stats.LeafCount, m.Stats.DepthAvg, m.Stats.DepthMax, m.Stats.ProcTime.Round(1e6))

	// Step 2: what a server or client runs instead: PrepareEnv loads the
	// map and thresholds from the table the offline step stored for the
	// game (`make thresholds` rewrites it). A loaded map's ProcTime is its
	// load time.
	env, err := core.PrepareEnv(spec, core.EnvOptions{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nstep 2: the stored output\n")
	fmt.Printf("  PrepareEnv loaded the map in %v; equal to step 1's map and thresholds: %v\n",
		env.Map.Stats.ProcTime.Round(1e3), env.Map.Equal(m))

	// Step 3: inspect one viewpoint's near/far split.
	pos := env.Game.Spawn
	leaf := env.Map.LeafAt(pos)
	fmt.Printf("\nstep 3: the split at the spawn point (%.0f, %.0f)\n", pos.X, pos.Z)
	fmt.Printf("  leaf region %d: cutoff radius %.1f m, cache distance threshold %.2f m\n",
		leaf.ID, leaf.Radius, leaf.DistThresh)

	r := render.New(env.Game.Scene, render.DefaultConfig())
	eye := env.Game.Scene.EyeAt(pos)
	whole := r.Panorama(eye, 0, math.Inf(1), nil)
	far := r.Panorama(eye, leaf.Radius, math.Inf(1), nil)
	near := r.NearFrame(eye, leaf.Radius, nil)
	merged := render.Merge(near, far)
	if s, err := ssim.Mean(whole, merged); err == nil {
		fmt.Printf("  near+far merge reproduces the direct render: SSIM %.4f\n", s)
	}
	wholeBytes := len(codec.Encode(whole, env.CRF))
	farBytes := len(codec.Encode(far, env.CRF))
	fmt.Printf("  encoded whole BE %d bytes vs far BE %d bytes (%.0f%% smaller)\n",
		wholeBytes, farBytes, 100*(1-float64(farBytes)/float64(wholeBytes)))

	// Step 4: drop the rendered panoramas to disk for inspection,
	// including a colour version of the whole scene.
	if err := writePGM("whole_be.pgm", whole); err != nil {
		log.Fatal(err)
	}
	if err := writePGM("far_be.pgm", far); err != nil {
		log.Fatal(err)
	}
	rgb := r.PanoramaRGB(eye, 0, math.Inf(1), nil)
	f, err := os.Create("whole_be_color.ppm")
	if err != nil {
		log.Fatal(err)
	}
	if err := rgb.WritePPM(f); err != nil {
		log.Fatal(err)
	}
	f.Close()
	fmt.Printf("\nwrote whole_be.pgm, far_be.pgm and whole_be_color.ppm\n")
}

func writePGM(path string, g *img.Gray) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return g.WritePGM(f)
}

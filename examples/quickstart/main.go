// Quickstart runs a single-player Coterie session on Viking Village end to
// end: build the world, run the offline preprocessing, simulate a minute
// of play on the testbed, and print the headline quality-of-experience
// numbers next to the paper's.
package main

import (
	"fmt"
	"log"

	"coterie/internal/core"
	"coterie/internal/games"
)

func main() {
	// 1. Pick a game from the paper's catalog.
	spec, err := games.ByName("viking")
	if err != nil {
		log.Fatal(err)
	}

	// 2. Offline preprocessing (§4.3, §6): build the world and load the
	// output of the per-app offline step stored for it, the adaptive
	// cutoff partition and the cache distance thresholds. The frame-size
	// model is sampled on first use, below.
	fmt.Printf("preparing %s...\n", spec.FullName)
	env, err := core.PrepareEnv(spec, core.EnvOptions{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("world: %.0fx%.0f m, %d objects, %d leaf regions\n",
		spec.Width, spec.Depth, len(env.Game.Scene.Objects), env.Map.Stats.LeafCount)
	sizes, err := env.Sizes()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("frames at 4K: whole BE ~%d KB, far BE ~%d KB\n\n",
		sizes.WholeBE/1024, sizes.FarBE/1024)

	// 3. Run a Coterie session on the simulated Pixel 2 + 802.11ac
	// testbed.
	res, err := core.RunSession(env, core.SessionConfig{
		System:  core.Coterie,
		Players: 1,
		Seconds: 60,
		Seed:    42,
	})
	if err != nil {
		log.Fatal(err)
	}

	m := res.Mean
	fmt.Println("Coterie, 1 player, 60 s:          measured   paper (Table 8)")
	fmt.Printf("  frame rate                        %5.1f fps   60 fps\n", m.FPS)
	fmt.Printf("  inter-frame latency               %5.1f ms    16.0 ms\n", m.InterFrameMs)
	fmt.Printf("  responsiveness (motion-to-photon) %5.1f ms    15.8 ms\n", m.ResponsivenessMs)
	fmt.Printf("  cache hit ratio                   %5.1f %%     80.8 %%\n", m.CacheHitRatio*100)
	fmt.Printf("  per-player BE bandwidth           %5.1f Mbps  26 Mbps\n", m.BEMbps)
	fmt.Printf("  CPU / GPU load                    %4.0f/%-4.0f %%  32/56 %%\n", m.CPUPct, m.GPUPct)
}

// Loadgen drives N concurrent synthetic players against a live Coterie
// frame server and reports throughput, fetch-latency percentiles, and the
// frame-store hit mix:
//
//	loadgen -addr host:7368 -game viking -players 64 -rate 30
//
// Against a cluster, -addr takes the comma-separated node list; players
// are assigned round-robin (player p connects to the p mod n-th node):
//
//	loadgen -addr host1:7368,host2:7368 -game viking -players 64
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"strings"
	"time"

	"coterie/internal/loadgen"
	"coterie/internal/obs"
)

func main() {
	addr := flag.String("addr", "", "frame server address, or a comma-separated cluster node list (players assigned round-robin)")
	game := flag.String("game", "pool", "game to load (must match the server's)")
	players := flag.Int("players", 4, "concurrent synthetic players")
	rate := flag.Float64("rate", 0, "per-player request rate in frames/sec (0 = unthrottled)")
	duration := flag.Duration("duration", 2*time.Second, "run length")
	pattern := flag.String("pattern", loadgen.PatternWalk, "movement: walk, static or scatter")
	seed := flag.Int64("seed", 1, "movement RNG seed")
	deadlineMs := flag.Float64("deadline-ms", 0, "per-request deadline budget in ms (0 = none; 16.7 = 60 Hz vsync)")
	adminAddrs := flag.String("admin-addrs", "", "comma-separated admin HTTP addresses of the target cluster; the final report embeds a fleet view scraped from them")
	jsonOut := flag.Bool("json", false, "emit the report as JSON")
	flag.Parse()

	cfg := loadgen.Config{
		Addr: *addr, Game: *game, Players: *players, Rate: *rate,
		Duration: *duration, Pattern: *pattern, Seed: *seed,
		DeadlineMs: *deadlineMs,
	}
	if *adminAddrs != "" {
		for _, a := range strings.Split(*adminAddrs, ",") {
			if a = strings.TrimSpace(a); a != "" {
				cfg.AdminAddrs = append(cfg.AdminAddrs, a)
			}
		}
	}
	rep, err := loadgen.Run(cfg)
	if err != nil {
		log.Fatalf("loadgen: %v", err)
	}
	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(rep); err != nil {
			log.Fatal(err)
		}
		return
	}
	fmt.Printf("loadgen: %d players on %q for %v (%s)\n",
		rep.Players, *game, rep.Duration.Round(time.Millisecond), *pattern)
	fmt.Printf("  throughput  %.1f frames/sec (%d frames, %d errors, %.1f MB)\n",
		rep.FramesPerSec, rep.Frames, rep.Errors, float64(rep.Bytes)/1e6)
	fmt.Printf("  latency     p50 %.2f ms  p95 %.2f ms  p99 %.2f ms\n",
		rep.P50Ms, rep.P95Ms, rep.P99Ms)
	if rep.Errors > 0 {
		fmt.Printf("  err latency p50 %.2f ms  p95 %.2f ms  p99 %.2f ms (%d errors)\n",
			rep.ErrP50Ms, rep.ErrP95Ms, rep.ErrP99Ms, rep.Errors)
	}
	budgetMs := rep.DeadlineMs
	if budgetMs <= 0 {
		budgetMs = obs.FrameBudgetMs
	}
	fmt.Printf("  deadline    %.1f%% of frames within %.1f ms budget\n",
		100*rep.DeadlineCompliance, budgetMs)
	fmt.Printf("  rungs       %d exact, %d stale\n", rep.RungExact, rep.RungStale)
	if rep.PeerFrames > 0 || rep.FailoverFrames > 0 {
		fmt.Printf("  cluster     %d peer-fetched, %d failover re-renders\n",
			rep.PeerFrames, rep.FailoverFrames)
	}
	fmt.Printf("  store       %.1f%% hits (%d hits, %d joins, %d renders)\n",
		100*rep.HitRate, rep.Hits, rep.Joins, rep.Renders)
	fmt.Printf("  wire        %.0f bytes/frame mean (%d delta frames)\n",
		rep.BytesPerFrame, rep.DeltaFrames)
	if rep.Fleet != nil {
		fmt.Printf("  fleet       %d/%d nodes up: %d frames served, burn 1m %.2f / 5m %.2f\n",
			rep.Fleet.NodesUp, rep.Fleet.NodesUp+rep.Fleet.NodesStale,
			rep.Fleet.FramesServed, rep.Fleet.BurnRate1m, rep.Fleet.BurnRate5m)
		for _, n := range rep.Fleet.Nodes {
			if n.Stale {
				fmt.Printf("    %-22s stale (%s)\n", n.Addr, n.Err)
				continue
			}
			fmt.Printf("    %-22s %d served (%d peer, %d failover), burn 1m %.2f\n",
				n.Addr, n.FramesServed, n.PeerFramesServed, n.PeerFailovers, n.SLO.Short.BurnRate)
		}
	}
}

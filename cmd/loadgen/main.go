// Loadgen drives N concurrent synthetic players against a Coterie frame
// server and reports throughput, fetch-latency percentiles, and the
// frame-store hit mix. Point it at a live server, or let it host one
// in-process (the default) to measure the server hot path without network
// noise:
//
//	loadgen -game pool -players 16 -duration 5s
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
	"net"
	"os"
	"runtime/pprof"
	"strings"
	"time"

	"coterie/internal/core"
	"coterie/internal/games"
	"coterie/internal/loadgen"
	"coterie/internal/obs"
	"coterie/internal/render"
	"coterie/internal/server"
)

func main() {
	addr := flag.String("addr", "", "frame server address, or a comma-separated cluster node list (players assigned round-robin); empty hosts one in-process")
	game := flag.String("game", "pool", "game to load (must match the server's)")
	players := flag.Int("players", 4, "concurrent synthetic players")
	rate := flag.Float64("rate", 0, "per-player request rate in frames/sec (0 = unthrottled)")
	duration := flag.Duration("duration", 2*time.Second, "run length")
	pattern := flag.String("pattern", loadgen.PatternWalk, "movement: walk, static or scatter")
	stepM := flag.Float64("step", 0, "walk step per request in metres (0 = a few grid cells)")
	seed := flag.Int64("seed", 1, "movement RNG seed")
	deadlineMs := flag.Float64("deadline-ms", 0, "per-request deadline budget in ms (0 = none; 16.7 = 60 Hz vsync)")
	sched := flag.Bool("sched", true, "in-process server: EDF deadline scheduling and admission control")
	degrade := flag.Bool("degrade", true, "in-process server: quality-degrade ladder under deadline pressure")
	width := flag.Int("width", 256, "in-process server: panorama width")
	height := flag.Int("height", 128, "in-process server: panorama height")
	budget := flag.Int64("store-budget", 0, "in-process server: frame store byte budget (0 = unbounded)")
	adminAddrs := flag.String("admin-addrs", "", "comma-separated admin HTTP addresses of the target cluster; the final report embeds a fleet view scraped from them")
	udpFrames := flag.Bool("udp-frames", false, "fetch frames over the datagram path (UDP-first with TCP fallback); the in-process server grows a UDP listener")
	push := flag.Bool("push", false, "opt into trajectory-driven server push (needs -udp-frames; enables push on the in-process server)")
	lossRate := flag.Float64("loss", 0, "receive-side datagram loss rate injected per player (needs -udp-frames)")
	lossSeed := flag.Int64("loss-seed", 1, "seed for the injected datagram loss")
	jsonOut := flag.Bool("json", false, "emit the report as JSON")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile of the run to this file")
	flag.Parse()

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			log.Fatalf("loadgen: %v", err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			log.Fatalf("loadgen: %v", err)
		}
		defer pprof.StopCPUProfile()
	}

	cfg := loadgen.Config{
		Addr: *addr, Game: *game, Players: *players, Rate: *rate,
		Duration: *duration, Pattern: *pattern, StepM: *stepM, Seed: *seed,
		DeadlineMs: *deadlineMs,
		UDPFrames:  *udpFrames, Push: *push,
		LossRate: *lossRate, LossSeed: *lossSeed,
	}
	if *adminAddrs != "" {
		for _, a := range strings.Split(*adminAddrs, ",") {
			if a = strings.TrimSpace(a); a != "" {
				cfg.AdminAddrs = append(cfg.AdminAddrs, a)
			}
		}
	}
	if *addr == "" {
		srv, hosted, stop, err := hostServer(*game, *width, *height, *budget, *udpFrames)
		if err != nil {
			log.Fatalf("loadgen: %v", err)
		}
		defer stop()
		srv.SetSchedEnabled(*sched)
		srv.SetDegradeEnabled(*degrade)
		srv.SetPushEnabled(*push)
		cfg.Addr, cfg.Server = hosted, srv
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
	if rep.UDPFetches > 0 || rep.TCPFallbacks > 0 {
		fmt.Printf("  datagram    %d UDP fetches, %d TCP fallbacks, push hit %.1f%% (%d pushed, %.1f KB wasted)\n",
			rep.UDPFetches, rep.TCPFallbacks, 100*rep.PushHitRatio,
			rep.PushedFrames, float64(rep.WastedPushBytes)/1e3)
		fmt.Printf("  loss repair %d NACKs sent, %d FEC-recovered, %d corrupt dropped\n",
			rep.NacksSent, rep.FECRecovered, rep.CorruptFrames)
	}
	if rep.StoreBytes >= 0 {
		fmt.Printf("  residency   %d bytes, %d evictions\n", rep.StoreBytes, rep.Evictions)
	}
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

// hostServer prepares the game environment and serves it on a loopback
// port, returning the server, its address, and a stop function. With udp
// set, a UDP listener on the same port carries the datagram frame path.
func hostServer(game string, w, h int, budget int64, udp bool) (*server.Server, string, func(), error) {
	spec, err := games.ByName(game)
	if err != nil {
		return nil, "", nil, err
	}
	log.Printf("preparing %s in-process...", spec.FullName)
	env, err := core.PrepareEnv(spec, core.EnvOptions{
		RenderCfg: render.Config{W: w, H: h},
	})
	if err != nil {
		return nil, "", nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, "", nil, err
	}
	srv := server.New(env)
	if budget > 0 {
		srv.SetStoreBudget(budget)
	}
	go srv.Serve(ln)
	stop := func() { ln.Close() }
	if udp {
		pc, err := net.ListenPacket("udp", ln.Addr().String())
		if err != nil {
			ln.Close()
			return nil, "", nil, err
		}
		go srv.ServeFIUDP(pc)
		stop = func() { pc.Close(); ln.Close() }
	}
	return srv, ln.Addr().String(), stop, nil
}

// Coterie-server hosts the far-BE frame server for one game over real
// TCP: it prepares the game's environment (it loads the adaptive cutoff map
// and the cache distance thresholds the offline step stored for it, the
// same at any -width and -height, which set only the frames it renders),
// then serves pre-rendered, pre-encoded panoramic far-BE frames and FI
// synchronisation to clients (§5.1).
//
// Usage:
//
//	coterie-server -game viking -addr :7368
//	coterie-client -game viking -addr localhost:7368
//
// With -admin, an HTTP listener exposes /metrics (JSON registry
// snapshot), /debug/vars (expvar) and /debug/pprof for live inspection
// (frame spans are recorded by the client, on its own -admin /trace):
//
//	coterie-server -game viking -addr :7368 -admin :6060
package main

import (
	"context"
	"errors"
	"flag"
	"log"
	"log/slog"
	"net"
	"net/http"
	"os/signal"
	"syscall"
	"time"

	"coterie/internal/core"
	"coterie/internal/games"
	"coterie/internal/geom"
	"coterie/internal/obs"
	"coterie/internal/render"
	"coterie/internal/server"
)

func main() {
	game := flag.String("game", "viking", "game to host (see games catalog)")
	addr := flag.String("addr", ":7368", "listen address")
	admin := flag.String("admin", "", "admin HTTP listen address for /metrics, expvar and pprof (empty = disabled)")
	width := flag.Int("width", 256, "width in pixels of the panoramas the server renders")
	height := flag.Int("height", 128, "height in pixels of the panoramas the server renders")
	storeBudget := flag.Int64("store-budget", 0, "frame store byte budget with LRU eviction (0 = unbounded)")
	prerender := flag.Float64("prerender", 0, "warm up frames within this radius (m) of the spawn before serving")
	stride := flag.Int("prerender-stride", 16, "grid stride for prerendering (1 = every point)")
	drain := flag.Duration("drain", 5*time.Second, "graceful-shutdown wait for in-flight sessions")
	push := flag.Bool("push", false, "push predicted frames unsolicited over UDP to subscribed clients")
	flag.Parse()

	spec, err := games.ByName(*game)
	if err != nil {
		log.Fatalf("coterie-server: %v", err)
	}
	log.Printf("preparing %s (loading the adaptive cutoff map and distance thresholds the offline step stored)...", spec.FullName)
	start := time.Now()
	env, err := core.PrepareEnv(spec, core.EnvOptions{
		RenderCfg: render.Config{W: *width, H: *height},
	})
	if err != nil {
		log.Fatalf("coterie-server: %v", err)
	}
	log.Printf("ready in %v: %d leaf regions",
		time.Since(start).Round(time.Millisecond), env.Map.Stats.LeafCount)

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatalf("coterie-server: %v", err)
	}
	srv := server.New(env)
	srv.DrainTimeout = *drain
	srv.SetPushEnabled(*push)
	if *storeBudget > 0 {
		srv.SetStoreBudget(*storeBudget)
		log.Printf("frame store bounded at %.1f MB (LRU eviction)", float64(*storeBudget)/1e6)
	}

	// The metrics registry always exists (the instruments are cheap); the
	// admin listener is what -admin opts into.
	reg := obs.NewRegistry()
	reg.PublishExpvar("coterie")
	srv.Instrument(reg)

	var adminSrv *http.Server
	if *admin != "" {
		aln, err := net.Listen("tcp", *admin)
		if err != nil {
			log.Fatalf("coterie-server: admin: %v", err)
		}
		mux := obs.AdminMux(reg)
		adminSrv = &http.Server{Handler: mux}
		go func() {
			if err := adminSrv.Serve(aln); err != nil && !errors.Is(err, http.ErrServerClosed) {
				slog.Warn("admin listener failed", "err", err)
			}
		}()
		log.Printf("admin endpoint on http://%s (/metrics, /debug/vars, /debug/pprof)", aln.Addr())
	}

	if *prerender > 0 {
		region := geom.Rect{
			MinX: env.Game.Spawn.X - *prerender, MinZ: env.Game.Spawn.Z - *prerender,
			MaxX: env.Game.Spawn.X + *prerender, MaxZ: env.Game.Spawn.Z + *prerender,
		}
		t0 := time.Now()
		stats, err := srv.PrerenderRegion(region, *stride)
		if err != nil {
			log.Fatalf("coterie-server: prerender: %v", err)
		}
		log.Printf("prerendered %d frames (%.1f MB) over %d points in %v",
			stats.Rendered, float64(stats.Bytes)/1e6, stats.Points,
			time.Since(t0).Round(time.Millisecond))
	}

	// FI sync runs over UDP on the same port, like the paper's PUN setup
	// (frames over TCP, FI over UDP).
	pc, err := net.ListenPacket("udp", *addr)
	if err != nil {
		log.Fatalf("coterie-server: udp: %v", err)
	}
	go func() {
		if err := srv.ServeFIUDP(pc); err != nil {
			slog.Warn("fi sync listener failed", "err", err)
		}
	}()

	// SIGINT/SIGTERM stop accepting and drain in-flight sessions. Close
	// failures here are logged, not swallowed: a failed close can leak the
	// port past the process's advertised shutdown.
	ctx, cancel := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer cancel()
	context.AfterFunc(ctx, func() {
		slog.Info("shutting down: draining sessions", "timeout", *drain)
		if err := pc.Close(); err != nil && !errors.Is(err, net.ErrClosed) {
			slog.Warn("udp listener close failed", "err", err)
		}
		if adminSrv != nil {
			if err := adminSrv.Close(); err != nil && !errors.Is(err, net.ErrClosed) {
				slog.Warn("admin listener close failed", "err", err)
			}
		}
	})

	log.Printf("serving %s on %s (frames: tcp, FI sync: udp)", spec.Name, ln.Addr())
	err = srv.ServeContext(ctx, ln)
	served, rendered := srv.Stats()
	log.Printf("served %d frames (%d rendered)", served, rendered)
	if err != nil && !errors.Is(err, context.Canceled) {
		log.Fatalf("coterie-server: %v", err)
	}
}

// Coterie-client plays a synthetic movement trace against a running
// coterie-server over real TCP/UDP. It runs the same per-frame pipeline
// (internal/runtime) that drives the paper's simulated experiments —
// similarity-cache lookup, tracked far-BE prefetch with lookahead, the
// Eq. 2 task join, vsync-floored display scheduling — just over live
// sockets instead of the discrete-event testbed. It reports the cache hit
// ratio, bytes fetched and fetch latency percentiles.
//
// Usage (after starting coterie-server -game viking):
//
//	coterie-client -game viking -addr localhost:7368 -seconds 30
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"time"

	"coterie/internal/client"
	"coterie/internal/core"
	"coterie/internal/games"
	"coterie/internal/obs"
	"coterie/internal/render"
	"coterie/internal/trace"
)

func main() {
	if err := run(); err != nil {
		log.Fatalf("coterie-client: %v", err)
	}
}

// run keeps all failure paths as error returns so the deferred teardown
// in client.RunLive always sends MsgBye — the server sees a clean close,
// not a dead socket.
func run() error {
	game := flag.String("game", "viking", "game to play")
	addr := flag.String("addr", "localhost:7368", "server address")
	seconds := flag.Float64("seconds", 30, "trace length to replay")
	player := flag.Int("player", 0, "player id")
	seed := flag.Int64("seed", 42, "movement seed")
	speed := flag.Float64("speed", 1, "replay speed multiplier (1 = real time)")
	width := flag.Int("width", 0, "panorama width for local preprocessing (0 = default)")
	height := flag.Int("height", 0, "panorama height for local preprocessing (0 = default)")
	record := flag.String("record", "", "save the generated movement trace to this file")
	replay := flag.String("replay", "", "replay a previously recorded trace instead of generating one")
	admin := flag.String("admin", "", "admin HTTP listen address for /metrics, /trace, expvar and pprof (empty = disabled)")
	metricsJSON := flag.String("metrics-json", "", "write the metrics registry snapshot as JSON to this file at session end (\"-\" = stdout)")
	udpFrames := flag.Bool("udp-frames", false, "fetch frames over the datagram path (UDP-first with TCP fallback)")
	push := flag.Bool("push", false, "opt into trajectory-driven server push (requires -udp-frames and a server run with -push)")
	flag.Parse()

	spec, err := games.ByName(*game)
	if err != nil {
		return err
	}
	// The client prepares the same environment the server did, so its
	// cache lookups use identical leaf regions and thresholds: the map is
	// the table the offline step stored (the paper ships the preprocessing
	// output with the app), and so are the thresholds at the default
	// resolution; at another one PrepareEnv calibrates them, as the server
	// does when run at that resolution.
	log.Printf("preparing %s client state...", spec.FullName)
	env, err := core.PrepareEnv(spec, core.EnvOptions{
		RenderCfg: render.Config{W: *width, H: *height},
	})
	if err != nil {
		return err
	}

	tr, err := loadTrace(env, *replay, *record, *seconds, *seed, spec.Name)
	if err != nil {
		return err
	}

	// The registry exists whenever either observability flag asks for it;
	// a nil registry keeps the pipeline's instrument branches dead.
	var reg *obs.Registry
	if *admin != "" || *metricsJSON != "" {
		reg = obs.NewRegistry()
	}
	if *admin != "" {
		aln, err := net.Listen("tcp", *admin)
		if err != nil {
			return fmt.Errorf("admin: %w", err)
		}
		adminSrv := &http.Server{Handler: obs.AdminMux(reg)}
		go func() {
			if err := adminSrv.Serve(aln); err != nil && !errors.Is(err, http.ErrServerClosed) {
				log.Printf("coterie-client: admin listener failed: %v", err)
			}
		}()
		defer adminSrv.Close()
		log.Printf("admin endpoint on http://%s (/metrics, /trace, /qoe, /debug/pprof)", aln.Addr())
	}

	report, err := client.RunLive(env, *addr, tr, *player, client.LiveConfig{
		Speed:     *speed,
		Obs:       reg,
		UDPFrames: *udpFrames,
		Push:      *push,
	})
	if report != nil {
		printReport(report, tr.Seconds())
	}
	if *metricsJSON != "" {
		if werr := writeMetrics(reg, *metricsJSON); werr != nil && err == nil {
			err = werr
		}
	}
	return err
}

// writeMetrics dumps the registry snapshot plus a QoE summary over the
// recorded spans as indented JSON to a file or stdout ("-").
func writeMetrics(reg *obs.Registry, path string) error {
	dump := struct {
		Metrics obs.Snapshot    `json:"metrics"`
		QoE     obs.QoESnapshot `json:"qoe"`
	}{
		Metrics: reg.Snapshot(),
		QoE:     reg.QoE(obs.QoEConfig{Player: -1}),
	}
	b, err := json.MarshalIndent(dump, "", "  ")
	if err != nil {
		return fmt.Errorf("metrics-json: %w", err)
	}
	b = append(b, '\n')
	if path == "-" {
		_, err = os.Stdout.Write(b)
		return err
	}
	if err := os.WriteFile(path, b, 0o644); err != nil {
		return fmt.Errorf("metrics-json: %w", err)
	}
	log.Printf("wrote metrics snapshot to %s", path)
	return nil
}

// loadTrace replays a recorded trace or generates one, optionally saving
// it for later replay.
func loadTrace(env *core.Env, replay, record string, seconds float64, seed int64, game string) (*trace.Trace, error) {
	var tr *trace.Trace
	if replay != "" {
		f, err := os.Open(replay)
		if err != nil {
			return nil, err
		}
		tr, err = trace.Read(f)
		f.Close()
		if err != nil {
			return nil, fmt.Errorf("reading trace: %w", err)
		}
		if tr.Game != game {
			return nil, fmt.Errorf("trace is for %q, not %q", tr.Game, game)
		}
		log.Printf("replaying %s (%.0f s recorded)", replay, tr.Seconds())
	} else {
		tr = trace.Generate(env.Game, seconds, seed)
	}
	if record != "" {
		f, err := os.Create(record)
		if err != nil {
			return nil, err
		}
		if err := tr.Save(f); err != nil {
			f.Close()
			return nil, fmt.Errorf("saving trace: %w", err)
		}
		if err := f.Close(); err != nil {
			return nil, err
		}
		log.Printf("recorded movement trace to %s", record)
	}
	return tr, nil
}

func printReport(r *client.LiveReport, seconds float64) {
	fmt.Printf("replayed %.0fs of movement in %v\n", seconds, r.Wall.Round(time.Millisecond))
	fmt.Printf("pipeline: %d frames, %.1f fps, inter-frame %.1f ms (p99 %.1f ms)\n",
		r.Metrics.Frames, r.Metrics.FPS, r.Metrics.InterFrameMs, r.Metrics.P99InterFrameMs)
	fmt.Printf("cache: %d lookups, hit ratio %.1f%% (paper: ~80%%)\n",
		r.Cache.Hits+r.Cache.Misses, r.Cache.HitRatio()*100)
	fmt.Printf("fetched %d frames, %.2f MB total (%d prefetches issued)\n",
		r.Fetches, float64(r.BytesFetched)/1e6, r.Prefetch.Issued)
	if len(r.FetchLatenciesMs) > 0 {
		fmt.Printf("fetch latency p50 %.1f ms, p95 %.1f ms\n",
			r.LatencyQuantile(0.5), r.LatencyQuantile(0.95))
	}
	if r.FIDrops > 0 {
		fmt.Printf("FI sync: %d round trips dropped\n", r.FIDrops)
	}
}

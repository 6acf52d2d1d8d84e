// Command bench is the repository's one benchmark for the frame service:
// it hosts the real server in-process on loopback TCP/UDP, drives it with
// its own load generator through five named workloads, prints every
// end-to-end and per-layer metric by name with unit and sample count,
// checks the served frames against independent ray-casts, and (with
// -trace 1) writes a span trace. See README.md and ../BENCHMARK.json.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"time"
)

// Config selects one workload run.
type Config struct {
	Workload string
	Seed     int64
	Seconds  float64
	Trace    bool
	TraceOut string
	// Sizing overrides the default work of the run (self-tests only).
	Sizing *Sizing
}

// Output is the result of one run: the metrics of the selected mode (every
// end_to_end metric untraced, every per_layer metric traced).
type Output struct {
	Correct   bool
	Attempted int64
	Failed    int64
	Metrics   map[string]val
	Decls     []MetricDecl
}

// players is the load shape's P: one connection and one goroutine each,
// never more than the host has cores.
func players() int {
	if n := runtime.NumCPU(); n < 4 {
		return n
	}
	return 4
}

// runOne runs one workload in this process and prints its report to w.
func runOne(cfg Config, w io.Writer) (*Output, error) {
	wl, ok := workloadByName(cfg.Workload)
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", cfg.Workload)
	}
	sz := DefaultSizing(players(), cfg.Seconds)
	if cfg.Sizing != nil {
		sz = *cfg.Sizing
	}
	sut, err := PrepareSUT(wl.Game, sz.Small)
	if err != nil {
		return nil, err
	}
	pw, phh := sut.Resolution()
	fmt.Fprintf(w, "workload %s: game %s, %s loop, P=%d players, %dx%d, GOMAXPROCS=%d nproc=%d %s, seed %d, trace %v\n",
		wl.Name, wl.Game, wl.Loop, sz.Players, pw, phh, runtime.GOMAXPROCS(0), runtime.NumCPU(), runtime.Version(), cfg.Seed, cfg.Trace)
	stream, err := Generate(sut, wl.Name, cfg.Seed, sz)
	if err != nil {
		return nil, err
	}
	pinOK := checkPin(sut, wl.Name, w)
	requests := 0
	for _, reqs := range stream.Players {
		requests += len(reqs)
	}
	fmt.Fprintf(w, "input_hash %s %016x (%d requests over %d players)\n", wl.Name, stream.Hash, requests, sz.Players)

	r := &run{wl: wl, sut: sut, sz: sz, stream: stream}
	out := &Output{}
	if cfg.Trace {
		r.rec = NewRecorder()
		r.root = r.rec.Add(0, "workload", time.Now(), 0, nil)
		out.Decls = perLayer
	} else {
		out.Decls = endToEnd
	}
	start := time.Now()

	a, host, err := r.measure(false)
	if err != nil {
		return nil, err
	}
	b := a
	if cfg.Trace {
		host.Close()
		if b, host, err = r.measure(true); err != nil {
			return nil, err
		}
	}
	// The output check, outside every timed window, on the server that just
	// served the workload.
	check := samplePoints(stream.Players, sz.VerifyPoints)
	ssimMin, err := host.CheckFrames(check)
	host.Close()
	if err != nil {
		return nil, err
	}
	out.Correct = ssimMin >= ssimFloor
	fmt.Fprintf(w, "output check %s: %d frames re-fetched and decoded, min SSIM %.4f vs ray-cast (floor %.2f): ok=%v\n",
		wl.Name, len(check), ssimMin, ssimFloor, out.Correct)
	phases := []*phase{a}
	if cfg.Trace {
		phases = append(phases, b)
	}
	for _, ph := range phases {
		t := ph.total()
		out.Attempted += t.attempted
		out.Failed += t.failed
	}

	if !cfg.Trace {
		out.Metrics = endToEndValues(a, sut.PrepareS, ssimMin, len(check))
		// The unbounded end-to-end quantities of the same rounds, for the
		// reader; the result line carries the declared metrics only.
		also := demotedValues(a)
		for _, d := range perLayer {
			if v, ok := also[d.Name]; ok {
				fmt.Fprintf(w, "also %s %s %.6g %s n=%d spread=%.3f\n", wl.Name, d.Name, v.v, d.Unit, v.n, v.spread)
			}
		}
	} else {
		out.Metrics = runValues(a, b, sut.PrepareS, pinOK)
		layer, err := layerPass(sut, samplePoints(stream.Players, sz.LayerPoints), r.rec, r.root, w)
		if err != nil {
			return nil, err
		}
		for k, v := range layer {
			out.Metrics[k] = v
		}
		r.rec.SetDur(r.root, start, time.Since(start))
		if err := r.rec.WriteFile(cfg.TraceOut, wl.Name, cfg.Seed, b.registry); err != nil {
			return nil, fmt.Errorf("write trace: %w", err)
		}
		fmt.Fprintf(w, "trace %s: spans written to %s\n", wl.Name, cfg.TraceOut)
	}
	printMetrics(w, wl.Name, out)
	return out, nil
}

// checkPin regenerates the pinned input and compares its hash.
func checkPin(sut *SUT, workload string, w io.Writer) bool {
	want, pinned := pinnedInputHash[workload]
	st, err := Generate(sut, workload, pinnedSeed, DefaultSizing(2, pinnedSeconds))
	if err != nil || !pinned {
		return false
	}
	if st.Hash != want {
		fmt.Fprintf(w, "input_hash MISMATCH %s: seed %d generates %016x, pinned %016x — internal/trace or internal/games changed the benchmark's input\n",
			workload, pinnedSeed, st.Hash, want)
	}
	return st.Hash == want
}

// printMetrics prints one line per declared metric of the run's mode. A
// median whose own round-to-round spread exceeds the metric's bound is
// printed as unresolved, not as a value.
func printMetrics(w io.Writer, workload string, out *Output) {
	for _, d := range out.Decls {
		v, ok := out.Metrics[d.Name]
		switch {
		case !ok:
			fmt.Fprintf(w, "metric %s %s n/a %s n=0 (not exercised by this workload)\n", workload, d.Name, d.Unit)
		case d.Bound > 0 && v.spread > d.Bound:
			fmt.Fprintf(w, "metric %s %s unresolved (%.6g) %s n=%d spread=%.3f exceeds bound %.2f\n", workload, d.Name, v.v, d.Unit, v.n, v.spread, d.Bound)
		default:
			fmt.Fprintf(w, "metric %s %s %.6g %s n=%d spread=%.3f\n", workload, d.Name, v.v, d.Unit, v.n, v.spread)
		}
	}
}

// resultLine is the contract's last line of standard output.
func resultLine(out *Output) string {
	type metric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	res := struct {
		Correct   bool              `json:"correct"`
		Attempted int64             `json:"attempted"`
		Failed    int64             `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{out.Correct, out.Attempted, out.Failed, make(map[string]metric)}
	for _, d := range out.Decls {
		res.Metrics[d.Name] = metric{out.Metrics[d.Name].v, d.Unit}
	}
	b, _ := json.Marshal(res) // plain numbers and strings: cannot fail
	return string(b)
}

// runAll runs the five workloads untraced, then traced (which includes the
// layer pass), each in its own child process so peak RSS, CPU time and pool
// state are per workload.
func runAll(seed int64, seconds float64) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	var errs []error
	for _, trace := range []string{"0", "1"} {
		for _, wl := range workloads {
			cmd := exec.Command(self, "-workload", wl.Name, "-seed", strconv.FormatInt(seed, 10),
				"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-trace", trace)
			cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
			if err := cmd.Run(); err != nil {
				errs = append(errs, fmt.Errorf("%s trace %s: %w", wl.Name, trace, err))
			}
		}
	}
	return errors.Join(errs...)
}

func main() {
	workload := flag.String("workload", "", "one of cold_scatter, frontier_walk, warm_walk, udp_push_lossy, client_replay; empty runs all five untraced, then traced")
	seed := flag.Int64("seed", 1, "input seed: the same seed gives the same request streams")
	seconds := flag.Float64("seconds", pinnedSeconds, "run length the fixed work is sized for")
	trace := flag.Int("trace", 0, "1 records spans and reports the per-layer metrics (traced rounds plus the layer pass)")
	traceOut := flag.String("trace-out", "", "span file of a traced run (default .bench_build/trace/<workload>-seed<n>.json)")
	flag.Parse()
	if *seconds <= 0 || flag.NArg() > 0 {
		flag.Usage()
		os.Exit(2)
	}
	if *workload == "" {
		if err := runAll(*seed, *seconds); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(1)
		}
		return
	}
	cfg := Config{Workload: *workload, Seed: *seed, Seconds: *seconds, Trace: *trace != 0, TraceOut: *traceOut}
	if cfg.TraceOut == "" {
		cfg.TraceOut = filepath.Join(".bench_build", "trace", fmt.Sprintf("%s-seed%d.json", cfg.Workload, cfg.Seed))
	}
	out, err := runOne(cfg, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(2)
	}
	fmt.Println(resultLine(out))
	if !out.Correct {
		os.Exit(1)
	}
}

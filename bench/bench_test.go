package main

import (
	"bytes"
	"encoding/json"
	"math"
	"net"
	"os"
	"path/filepath"
	"regexp"
	"sync"
	"testing"
	"time"

	"coterie/internal/transport"
)

// smallSUT prepares each game once per test binary at the self-test
// resolution.
var smallSUT = struct {
	mu   sync.Mutex
	suts map[string]*SUT
}{suts: make(map[string]*SUT)}

func testSUT(t *testing.T, game string) *SUT {
	t.Helper()
	smallSUT.mu.Lock()
	defer smallSUT.mu.Unlock()
	if s := smallSUT.suts[game]; s != nil {
		return s
	}
	s, err := PrepareSUT(game, true)
	if err != nil {
		t.Fatal(err)
	}
	smallSUT.suts[game] = s
	return s
}

func TestPercentile(t *testing.T) {
	s := make([]float64, 100)
	for i := range s {
		s[i] = float64(i + 1)
	}
	for q, want := range map[float64]float64{0.50: 50, 0.95: 95, 0.99: 99} {
		if got := percentile(s, q); got != want {
			t.Errorf("percentile(1..100, %v) = %v, want %v", q, got, want)
		}
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile of nothing = %v, want 0", got)
	}
	if got := percentile([]float64{7}, 0.99); got != 7 {
		t.Errorf("percentile of one sample = %v, want 7", got)
	}
}

func TestSupportedPercentile(t *testing.T) {
	// A percentile is reported only with ten samples beyond it, so the
	// highest one a sample supports rises with its size.
	highest := func(n int) float64 {
		best := 0.0
		for _, q := range []float64{0.50, 0.95, 0.99} {
			if supported(n, q) {
				best = q
			}
		}
		return best
	}
	for _, c := range []struct {
		n    int
		want float64
	}{{0, 0}, {19, 0}, {20, 0.50}, {199, 0.50}, {200, 0.95}, {999, 0.95}, {1000, 0.99}} {
		if got := highest(c.n); got != c.want {
			t.Errorf("highest percentile %d samples support = %v, want %v", c.n, got, c.want)
		}
	}
}

func TestPercentileOverRounds(t *testing.T) {
	round := func(n int, base float64) []float64 {
		r := make([]float64, n)
		for i := range r {
			r[i] = base + float64(i)
		}
		return r
	}
	// Every round supports the median alone: median of the rounds' medians.
	v, spread, n := percentileOverRounds([][]float64{round(21, 0), round(21, 100), round(21, 200)}, 0.50)
	if v != 110 || n != 63 || spread == 0 {
		t.Errorf("per-round p50 = %v (n=%d, spread %v), want 110 over 63 with a spread", v, n, spread)
	}
	// No round supports p95 alone: the pooled samples decide.
	v, spread, _ = percentileOverRounds([][]float64{round(100, 0), round(100, 0), round(100, 0)}, 0.95)
	if v != 94 || spread != 0 {
		t.Errorf("pooled p95 = %v (spread %v), want 94 pooled", v, spread)
	}
}

func TestQuartileSpread(t *testing.T) {
	// statistics.quantiles([1..10], n=4) gives 2.75 and 8.25; median 5.5.
	v := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	if got, want := quartileSpread(v), (8.25-2.75)/5.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("quartileSpread = %v, want %v", got, want)
	}
	if got := quartileSpread([]float64{3}); got != 0 {
		t.Errorf("spread of one value = %v, want 0", got)
	}
}

func TestSpanSelfTime(t *testing.T) {
	rec := NewRecorder()
	t0 := time.Now()
	round := rec.Add(0, "round", t0, 0, nil)
	replies := []transport.FrameReply{
		{QueueMs: 1, RenderMs: 10.5, EncodeMs: 0.9}, // a miss
		{}, // a store hit: all self time
		{QueueMs: 4, RenderMs: 30, EncodeMs: 6, HopMs: 2}, // stages nominally exceed the round trip
	}
	rtts := []time.Duration{15 * time.Millisecond, 20 * time.Microsecond, 21 * time.Millisecond}
	for i, reply := range replies {
		rec.AddFetch(round, t0, rtts[i], reply, FetchAttrs{Player: 0, Seq: i + 1, Path: "tcp"})
	}
	rec.SetDur(round, t0, 40*time.Millisecond)
	fillSelfTimes(rec.spans)
	fetches := 0
	for _, sp := range rec.spans {
		if sp.Name != "fetch" {
			continue
		}
		children := 0.0
		for _, c := range rec.spans {
			if c.Parent == sp.ID {
				children += c.DurUs
			}
		}
		if sp.SelfUs < 0 {
			t.Errorf("fetch %d has negative self time %v", sp.Fetch.Seq, sp.SelfUs)
		}
		if got := children + sp.SelfUs; math.Abs(got-sp.DurUs) > 1e-6 {
			t.Errorf("fetch %d: stages %v + self %v = %v, want the measured %v", sp.Fetch.Seq, children, sp.SelfUs, got, sp.DurUs)
		}
		want := rtts[fetches]
		if got := time.Duration(sp.DurUs * float64(time.Microsecond)); got != want {
			t.Errorf("fetch %d duration %v, want %v", sp.Fetch.Seq, got, want)
		}
		fetches++
	}
	if fetches != 3 {
		t.Fatalf("recorded %d fetch spans, want 3", fetches)
	}
	// The miss keeps 15 - 12.4 ms for itself; the hit keeps everything.
	if self := rec.spans[1].SelfUs; math.Abs(self-2600) > 1 {
		t.Errorf("miss self time %v us, want 2600", self)
	}
	// The round's self time is its duration minus its three fetches.
	if got, want := rec.spans[0].SelfUs, 40000.0-15000-20-21000; math.Abs(got-want) > 1e-6 {
		t.Errorf("round self time %v us, want %v", got, want)
	}
}

func TestGeneratorDeterminism(t *testing.T) {
	sz := DefaultSizing(2, 2)
	for _, wl := range workloads {
		sut := testSUT(t, wl.Game)
		gen := func(seed int64) uint64 {
			st, err := Generate(sut, wl.Name, seed, sz)
			if err != nil {
				t.Fatal(err)
			}
			if len(st.Players) != sz.Players {
				t.Fatalf("%s: %d player streams, want %d", wl.Name, len(st.Players), sz.Players)
			}
			return st.Hash
		}
		a, b, c := gen(1), gen(1), gen(2)
		if a != b {
			t.Errorf("%s: seed 1 generated %016x then %016x", wl.Name, a, b)
		}
		if a == c {
			t.Errorf("%s: seeds 1 and 2 both generated %016x", wl.Name, a)
		}
	}
}

func TestPinnedInputHash(t *testing.T) {
	for _, wl := range workloads {
		if _, ok := pinnedInputHash[wl.Name]; !ok {
			t.Errorf("%s: no pinned input hash", wl.Name)
			continue
		}
		if !checkPin(testSUT(t, wl.Game), wl.Name, os.Stderr) {
			t.Errorf("%s: generated input no longer matches the pinned hash", wl.Name)
		}
	}
}

func TestScatterCoversMap(t *testing.T) {
	grid := testSUT(t, "viking").Grid()
	streams := scatter(grid, 2, 50, 1)
	quadrant := make(map[[2]bool]int)
	for _, reqs := range streams {
		if len(reqs) != 50 {
			t.Fatalf("player stream has %d requests, want 50", len(reqs))
		}
		for _, rq := range reqs {
			if !grid.In(rq.Pt) {
				t.Fatalf("point %v outside the grid", rq.Pt)
			}
			mid := grid.Bounds.Center()
			quadrant[[2]bool{rq.Pos.X < mid.X, rq.Pos.Z < mid.Z}]++
		}
	}
	for q, n := range quadrant {
		if n < 20 || n > 30 {
			t.Errorf("quadrant %v holds %d of 100 stratified points, want about 25", q, n)
		}
	}
}

func TestRelayLossAndBytes(t *testing.T) {
	echo, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	defer echo.Close()
	go func() {
		buf := make([]byte, 2048)
		for {
			n, from, err := echo.ReadFromUDP(buf)
			if err != nil {
				return
			}
			echo.WriteToUDP(buf[:n], from)
		}
	}()
	const seed, rate, sent, size = 42, 0.25, 200, 100
	relay, err := StartRelay(echo.LocalAddr().String(), rate, seed)
	if err != nil {
		t.Fatal(err)
	}
	conn, err := net.Dial("udp", relay.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	received := 0
	buf := make([]byte, 2048)
	for i := 0; i < sent; i++ {
		// One datagram in flight at a time, so nothing is lost to a full
		// socket buffer and the relay sees a fixed sequence.
		if _, err := conn.Write(make([]byte, size)); err != nil {
			t.Fatal(err)
		}
		conn.SetReadDeadline(time.Now().Add(15 * time.Millisecond))
		if n, err := conn.Read(buf); err == nil && n == size {
			received++
		}
	}
	relay.Close()

	// The same seed replayed outside the relay predicts every drop.
	up, down := newLossGen(seed*7919, rate), newLossGen(seed*7919+1, rate)
	wantUpDrops, wantDownDrops := 0, 0
	for i := 0; i < sent; i++ {
		if up.drop() {
			wantUpDrops++
		} else if down.drop() {
			wantDownDrops++
		}
	}
	if got := relay.UpDropped.Load(); got != int64(wantUpDrops) {
		t.Errorf("uplink drops %d, the seed predicts %d", got, wantUpDrops)
	}
	if got := relay.DownDropped.Load(); got != int64(wantDownDrops) {
		t.Errorf("downlink drops %d, the seed predicts %d", got, wantDownDrops)
	}
	if got, want := relay.UpBytes.Load(), int64(sent*size); got != want {
		t.Errorf("uplink bytes %d, want %d (counted before the drop)", got, want)
	}
	if got, want := relay.DownBytes.Load(), int64((sent-wantUpDrops)*size); got != want {
		t.Errorf("downlink bytes %d, want %d (every echoed datagram, dropped or not)", got, want)
	}
	if want := sent - wantUpDrops - wantDownDrops; received != want {
		t.Errorf("client received %d echoes, want %d", received, want)
	}
	if wantUpDrops == 0 || wantDownDrops == 0 {
		t.Fatal("seed produced no drops; the test checks nothing")
	}
}

// tinySizing is a few requests per workload at the self-test resolution.
func tinySizing() *Sizing {
	return &Sizing{
		Players: 2, Rounds: 2, TracedRounds: 1,
		ScatterPerRnd: 3, FrontierPerRnd: 4, WarmPoints: 5, WarmLapsPerRnd: 2,
		OpenSeconds: 1, VerifyPoints: 4, LayerPoints: 3, Small: true,
	}
}

// metricLine captures the workload, name and unit of a printed metric.
var metricLine = regexp.MustCompile(`(?m)^metric (\S+) (\S+) (?:unresolved \(\S+\)|\S+) (\S+) n=\d+`)

// TestSmoke runs every workload in both modes at tiny counts and asserts
// that every declared metric of the mode is printed exactly once with its
// unit, and that the result line carries exactly the declared names.
func TestSmoke(t *testing.T) {
	for _, wl := range workloads {
		testSUT(t, wl.Game) // not part of the timed smoke
		for _, traced := range []bool{false, true} {
			var buf bytes.Buffer
			cfg := Config{Workload: wl.Name, Seed: 3, Seconds: 1, Trace: traced,
				TraceOut: filepath.Join(t.TempDir(), "trace.json"), Sizing: tinySizing()}
			out, err := runOne(cfg, &buf)
			if err != nil {
				t.Fatalf("%s trace=%v: %v\n%s", wl.Name, traced, err, buf.String())
			}
			decls := endToEnd
			if traced {
				decls = perLayer
			}
			printed := make(map[string]int)
			units := make(map[string]string)
			for _, m := range metricLine.FindAllStringSubmatch(buf.String(), -1) {
				if m[1] != wl.Name {
					t.Errorf("metric line names workload %q, want %q", m[1], wl.Name)
				}
				printed[m[2]]++
				units[m[2]] = m[3]
			}
			for _, d := range decls {
				if printed[d.Name] != 1 {
					t.Errorf("%s trace=%v: metric %s printed %d times, want once", wl.Name, traced, d.Name, printed[d.Name])
				}
				if units[d.Name] != d.Unit {
					t.Errorf("%s trace=%v: metric %s printed in %q, want %q", wl.Name, traced, d.Name, units[d.Name], d.Unit)
				}
			}
			if len(printed) != len(decls) {
				t.Errorf("%s trace=%v: %d metrics printed, %d declared", wl.Name, traced, len(printed), len(decls))
			}
			var res struct {
				Attempted int64
				Metrics   map[string]struct {
					Value *float64
					Unit  string
				}
			}
			if err := json.Unmarshal([]byte(resultLine(out)), &res); err != nil {
				t.Fatal(err)
			}
			if res.Attempted < 1 {
				t.Errorf("%s trace=%v: attempted %d", wl.Name, traced, res.Attempted)
			}
			if len(res.Metrics) != len(decls) {
				t.Errorf("%s trace=%v: result line has %d metrics, %d declared", wl.Name, traced, len(res.Metrics), len(decls))
			}
			for _, d := range decls {
				if m, ok := res.Metrics[d.Name]; !ok || m.Value == nil || m.Unit != d.Unit {
					t.Errorf("%s trace=%v: result line lacks %s in %s", wl.Name, traced, d.Name, d.Unit)
				}
			}
			if traced {
				if _, err := os.Stat(cfg.TraceOut); err != nil {
					t.Errorf("%s: traced run wrote no span file: %v", wl.Name, err)
				}
			}
		}
	}
}

// TestBenchmarkJSON keeps ../BENCHMARK.json in step with the declarations.
func TestBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name, Unit, Better string
		Bound              float64
	}
	var bj struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []metric `json:"end_to_end"`
		PerLayer  []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &bj); err != nil {
		t.Fatal(err)
	}
	if len(bj.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the bench %d", len(bj.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if bj.Workloads[i].Name != w.Name {
			t.Errorf("workload %d is %q in BENCHMARK.json, %q in the bench", i, bj.Workloads[i].Name, w.Name)
		}
	}
	check := func(kind string, got []metric, want []MetricDecl) {
		if len(got) != len(want) {
			t.Fatalf("BENCHMARK.json has %d %s metrics, the bench declares %d", len(got), kind, len(want))
		}
		for i, d := range want {
			if g := got[i]; g.Name != d.Name || g.Unit != d.Unit || g.Better != d.Better || g.Bound != d.Bound {
				t.Errorf("%s metric %d: BENCHMARK.json %+v, bench %+v", kind, i, g, d)
			}
		}
	}
	check("end_to_end", bj.EndToEnd, endToEnd)
	check("per_layer", bj.PerLayer, perLayer)
}

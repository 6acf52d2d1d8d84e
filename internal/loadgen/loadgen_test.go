package loadgen

import (
	"net"
	"sync"
	"testing"
	"time"

	"coterie/internal/core"
	"coterie/internal/games"
	"coterie/internal/render"
	"coterie/internal/server"
)

var (
	envOnce sync.Once
	envAddr string
	envErr  error
)

// testServer hosts one in-process pool server shared by the package's
// tests (PrepareEnv dominates test time).
func testServer(t *testing.T) string {
	t.Helper()
	envOnce.Do(func() {
		spec, err := games.ByName("pool")
		if err != nil {
			envErr = err
			return
		}
		env, err := core.PrepareEnv(spec, core.EnvOptions{
			RenderCfg:   render.Config{W: 96, H: 48},
			SizeSamples: 2,
		})
		if err != nil {
			envErr = err
			return
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			envErr = err
			return
		}
		go server.New(env).Serve(ln)
		envAddr = ln.Addr().String()
	})
	if envErr != nil {
		t.Fatal(envErr)
	}
	return envAddr
}

func TestRunWalk(t *testing.T) {
	addr := testServer(t)
	rep, err := Run(Config{
		Addr: addr, Game: "pool", Players: 4,
		Duration: 400 * time.Millisecond, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Frames == 0 || rep.FramesPerSec <= 0 {
		t.Fatalf("no throughput: %+v", rep)
	}
	if rep.Errors != 0 {
		t.Errorf("%d request errors: %+v", rep.Errors, rep)
	}
	if got := rep.Hits + rep.Joins + rep.Renders; got != rep.Frames {
		t.Errorf("classification %d+%d+%d != %d frames",
			rep.Hits, rep.Joins, rep.Renders, rep.Frames)
	}
	if rep.Renders == 0 {
		t.Error("a cold store saw no renders")
	}
	if rep.P50Ms <= 0 || rep.P99Ms < rep.P95Ms || rep.P95Ms < rep.P50Ms {
		t.Errorf("latency percentiles inconsistent: %+v", rep)
	}
}

func TestRunStaticIsHitDominated(t *testing.T) {
	addr := testServer(t)
	rep, err := Run(Config{
		Addr: addr, Game: "pool", Players: 2, Pattern: PatternStatic,
		Duration: 300 * time.Millisecond, Seed: 11,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Standing still, everything after each player's first fetch is a
	// store hit.
	if rep.Frames < 10 {
		t.Fatalf("static run too small to judge: %+v", rep)
	}
	if rep.HitRate < 0.9 {
		t.Errorf("static pattern hit rate %.2f, want > 0.9", rep.HitRate)
	}
}

func TestRunRejectsUnknowns(t *testing.T) {
	if _, err := Run(Config{Addr: "127.0.0.1:1", Game: "no-such-game"}); err == nil {
		t.Error("unknown game accepted")
	}
	if _, err := Run(Config{Addr: "127.0.0.1:1", Game: "pool", Pattern: "teleport"}); err == nil {
		t.Error("unknown pattern accepted")
	}
	// An unreachable server must fail the run, not hang or report zero.
	if _, err := Run(Config{
		Addr: "127.0.0.1:1", Game: "pool", Duration: 100 * time.Millisecond,
	}); err == nil {
		t.Error("unreachable server accepted")
	}
}

func TestRunWithDeadline(t *testing.T) {
	addr := testServer(t)
	rep, err := Run(Config{
		Addr: addr, Game: "pool", Players: 4, DeadlineMs: 16.7,
		Duration: 400 * time.Millisecond, Seed: 13,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Frames == 0 {
		t.Fatalf("no throughput: %+v", rep)
	}
	if rep.DeadlineMs != 16.7 {
		t.Errorf("DeadlineMs = %v, want 16.7", rep.DeadlineMs)
	}
	// Every successful fetch lands on exactly one rung.
	if got := rep.RungExact + rep.RungStale; got != rep.Frames {
		t.Errorf("rung mix %d != %d frames", got, rep.Frames)
	}
	if rep.DeadlineCompliance < 0 || rep.DeadlineCompliance > 1 {
		t.Errorf("compliance %v out of range", rep.DeadlineCompliance)
	}
	// Sheds (if any) must not kill players or leak into the success
	// percentiles: with errors recorded there must be error percentiles.
	if rep.Errors > 0 && rep.ErrP50Ms <= 0 {
		t.Errorf("%d errors but no error latency percentiles: %+v", rep.Errors, rep)
	}
}

func TestRateThrottling(t *testing.T) {
	addr := testServer(t)
	const rate, secs = 20.0, 0.5
	rep, err := Run(Config{
		Addr: addr, Game: "pool", Players: 1, Pattern: PatternStatic,
		Rate: rate, Duration: time.Duration(secs * float64(time.Second)),
		Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	// One throttled player can't exceed rate*duration (+1 for the fetch
	// in flight at the deadline); generous floor for slow CI.
	if max := int64(rate*secs) + 2; rep.Frames > max {
		t.Errorf("throttled run fetched %d frames, cap %d", rep.Frames, max)
	}
	if rep.Frames < 3 {
		t.Errorf("throttled run fetched only %d frames", rep.Frames)
	}
}

func TestSplitAddrsRoundRobin(t *testing.T) {
	addrs := splitAddrs(" a:1, b:2 ,,c:3 ")
	if len(addrs) != 3 || addrs[0] != "a:1" || addrs[1] != "b:2" || addrs[2] != "c:3" {
		t.Fatalf("splitAddrs = %v", addrs)
	}
	// Player p lands on the p mod n-th node.
	for p, want := range []string{"a:1", "b:2", "c:3", "a:1", "b:2"} {
		if got := addrFor(addrs, p); got != want {
			t.Errorf("player %d -> %s, want %s", p, got, want)
		}
	}
	if got := splitAddrs(" , "); got != nil {
		t.Errorf("splitAddrs blank = %v, want nil", got)
	}
	if got := addrFor(nil, 0); got != "" {
		t.Errorf("addrFor empty = %q", got)
	}
}

func TestMultiAddrRun(t *testing.T) {
	// Same server listed twice: the round-robin still has to produce a
	// working session per player, and a blank Addr list must refuse.
	addr := testServer(t)
	rep, err := Run(Config{
		Addr: addr + " , " + addr, Game: "pool", Players: 2,
		Duration: 300 * time.Millisecond, Seed: 11,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Frames == 0 {
		t.Fatalf("no throughput: %+v", rep)
	}
	if rep.PeerFrames != 0 || rep.FailoverFrames != 0 {
		t.Errorf("single-node run reported peer=%d failover=%d", rep.PeerFrames, rep.FailoverFrames)
	}
	if _, err := Run(Config{Addr: " , ", Game: "pool"}); err == nil {
		t.Error("Run with blank address list did not error")
	}
}

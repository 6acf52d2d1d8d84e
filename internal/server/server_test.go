package server

import (
	"net"
	"sync"
	"testing"

	"coterie/internal/codec"
	"coterie/internal/core"
	"coterie/internal/games"
	"coterie/internal/geom"
	"coterie/internal/render"
)

var (
	envOnce sync.Once
	envPool *core.Env
	envErr  error
)

func poolEnv(t *testing.T) *core.Env {
	t.Helper()
	envOnce.Do(func() {
		spec, err := games.ByName("pool")
		if err != nil {
			envErr = err
			return
		}
		envPool, envErr = core.PrepareEnv(spec, core.EnvOptions{
			RenderCfg:   render.Config{W: 96, H: 48},
			SizeSamples: 2,
		})
	})
	if envErr != nil {
		t.Fatal(envErr)
	}
	return envPool
}

func startServer(t *testing.T) (*Server, string) {
	t.Helper()
	srv := New(poolEnv(t))
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go srv.Serve(ln)
	return srv, ln.Addr().String()
}

func TestFrameForMemoises(t *testing.T) {
	srv := New(poolEnv(t))
	pt := srv.env.Game.Scene.Grid.Snap(srv.env.Game.Spawn)
	a, err := srv.FrameFor(pt)
	if err != nil {
		t.Fatal(err)
	}
	b, err := srv.FrameFor(pt)
	if err != nil {
		t.Fatal(err)
	}
	if &a[0] != &b[0] {
		t.Fatal("second request should return the memoised frame")
	}
	if _, rendered := srv.Stats(); rendered != 1 {
		t.Fatalf("rendered %d frames, want 1", rendered)
	}
	// The frame must decode back to the panorama resolution.
	img, err := codec.Decode(a)
	if err != nil {
		t.Fatal(err)
	}
	if img.W != 96 || img.H != 48 {
		t.Fatalf("decoded %dx%d", img.W, img.H)
	}
}

func TestFrameForRejectsOutside(t *testing.T) {
	srv := New(poolEnv(t))
	if _, err := srv.FrameFor(geom.GridPoint{I: -1, J: 0}); err == nil {
		t.Fatal("outside point accepted")
	}
}

func TestEndToEndFetch(t *testing.T) {
	srv, addr := startServer(t)
	cl, err := Dial(addr, "pool", 1)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	pt := srv.env.Game.Scene.Grid.Snap(srv.env.Game.Spawn)
	data, err := cl.Fetch(pt)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := codec.Decode(data); err != nil {
		t.Fatalf("fetched frame does not decode: %v", err)
	}
	served, _ := srv.Stats()
	if served != 1 {
		t.Fatalf("served = %d", served)
	}
	if _, err := cl.Fetch(geom.GridPoint{I: -9, J: -9}); err == nil {
		t.Fatal("invalid point should return a server error")
	}
	// The connection survives server-side errors.
	if _, err := cl.Fetch(pt); err != nil {
		t.Fatalf("fetch after error: %v", err)
	}
}

func TestDialWrongGame(t *testing.T) {
	_, addr := startServer(t)
	if _, err := Dial(addr, "viking", 1); err == nil {
		t.Fatal("wrong game accepted")
	}
}

func TestConcurrentClients(t *testing.T) {
	srv, addr := startServer(t)
	grid := srv.env.Game.Scene.Grid
	var wg sync.WaitGroup
	errs := make(chan error, 4)
	for p := 0; p < 4; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			cl, err := Dial(addr, "pool", uint8(p))
			if err != nil {
				errs <- err
				return
			}
			defer cl.Close()
			for i := 0; i < 5; i++ {
				pt := grid.Snap(geom.V2(float64(2+p), float64(2+i)))
				if _, err := cl.Fetch(pt); err != nil {
					errs <- err
					return
				}
			}
		}(p)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	served, _ := srv.Stats()
	if served != 20 {
		t.Fatalf("served %d frames, want 20", served)
	}
}

func TestPrerenderRegion(t *testing.T) {
	srv := New(poolEnv(t))
	region := geom.Rect{MinX: 2, MinZ: 2, MaxX: 3, MaxZ: 3}
	stats, err := srv.PrerenderRegion(region, 8)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Points < 4 || stats.Rendered < 4 || stats.Bytes <= 0 {
		t.Fatalf("stats %+v", stats)
	}
	// A second pass renders nothing new.
	again, err := srv.PrerenderRegion(region, 8)
	if err != nil {
		t.Fatal(err)
	}
	if again.Rendered != 0 {
		t.Fatalf("second pass rendered %d frames", again.Rendered)
	}
	if again.Points != stats.Points {
		t.Fatalf("coverage changed: %d vs %d", again.Points, stats.Points)
	}
	// Prerendered frames serve without further rendering.
	pt := srv.env.Game.Scene.Grid.Snap(geom.V2(2, 2))
	_, rendered := srv.Stats()
	if _, err := srv.FrameFor(pt); err != nil {
		t.Fatal(err)
	}
	if _, after := srv.Stats(); after != rendered {
		t.Fatal("prerendered frame was re-rendered")
	}
}

func TestPrerenderEmptyRegion(t *testing.T) {
	srv := New(poolEnv(t))
	// Degenerate rectangle still covers its snapped corner point.
	stats, err := srv.PrerenderRegion(geom.Rect{MinX: 5, MinZ: 5, MaxX: 5, MaxZ: 5}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Points != 1 {
		t.Fatalf("points = %d", stats.Points)
	}
}

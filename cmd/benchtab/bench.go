package main

import (
	"encoding/json"
	"math"
	"math/rand"
	"os"
	"runtime"
	"testing"
	"time"

	"coterie/internal/codec"
	"coterie/internal/games"
	"coterie/internal/geom"
	"coterie/internal/img"
	"coterie/internal/render"
	"coterie/internal/ssim"
	"coterie/internal/transport"
)

// benchReport is the -bench-json payload: wall-clock per experiment plus the
// hot-path micro-benchmarks, so a run leaves a machine-readable performance
// record alongside the printed tables.
type benchReport struct {
	Generated   string       `json:"generated"`
	GoMaxProcs  int          `json:"gomaxprocs"`
	Parallel    int          `json:"parallel"`
	Quick       bool         `json:"quick"`
	Experiments []expTiming  `json:"experiments"`
	Micro       []microBench `json:"micro"`
	// ServerThroughput is the multi-player server scaling bench:
	// loopback-TCP fetch throughput at increasing player counts.
	ServerThroughput []serverThroughput `json:"server_throughput,omitempty"`
	// DeltaSavings is the delta-codec A/B: the same walk-pattern load run
	// with delta coding off and on, and the bytes-per-frame reduction.
	DeltaSavings *deltaSavings `json:"delta_savings,omitempty"`
	// DeadlineAB is the deadline-scheduling A/B: walk load with every
	// request stamped with the 16.7 ms vsync budget, EDF scheduler and
	// degrade ladder off vs on, at increasing player counts.
	DeadlineAB *deadlineAB `json:"deadline_ab,omitempty"`
	// ClusterScaleout is the multi-node bench: the same per-node walk load
	// against 1/2/4 rendezvous-hashed in-process nodes, with the peer-fetch
	// mix and per-node efficiency.
	ClusterScaleout []clusterScaleout `json:"cluster_scaleout,omitempty"`
	// ObsOverhead is the observability A/B: the same walk load with the
	// registry + trace + SLO pipeline off and on, and the throughput cost.
	ObsOverhead *obsOverhead `json:"obs_overhead,omitempty"`
	// UDPvsTCP is the datagram frame-path A/B: the same walk load fetched
	// over the TCP baseline vs UDP with trajectory-driven push, at 0/1/5%
	// injected datagram loss.
	UDPvsTCP *udpVsTCP `json:"udp_vs_tcp,omitempty"`
}

type expTiming struct {
	Name    string  `json:"name"`
	Seconds float64 `json:"seconds"`
}

type microBench struct {
	Name        string  `json:"name"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
}

// smoothGray builds a blocky random grayscale frame — flat cells with sharp
// edges, the same shape the ssim package's own benchmarks use, so the JSON
// numbers are comparable to `go test -bench` output.
func smoothGray(rng *rand.Rand, w, h, cell int) *img.Gray {
	g := img.NewGray(w, h)
	cw := w/cell + 1
	base := make([]uint8, cw*(h/cell+1))
	for i := range base {
		base[i] = uint8(rng.Intn(256))
	}
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			g.Set(x, y, base[(y/cell)*cw+x/cell])
		}
	}
	return g
}

func measure(name string, fn func(b *testing.B)) microBench {
	r := testing.Benchmark(fn)
	return microBench{
		Name:        name,
		NsPerOp:     float64(r.NsPerOp()),
		AllocsPerOp: r.AllocsPerOp(),
		BytesPerOp:  r.AllocedBytesPerOp(),
	}
}

// runMicroBenches exercises the allocation-free hot paths: the pooled SSIM
// comparer, the panorama ray-cast, the codec round trip, and the per-frame
// transport codec
// (which carries the span-v2 trace context, so any per-frame allocation
// creep there shows up in the bench-diff gate).
func runMicroBenches() ([]microBench, error) {
	rng := rand.New(rand.NewSource(1))
	a := smoothGray(rng, 256, 128, 4)
	b := smoothGray(rng, 256, 128, 4)

	spec, err := games.ByName("pool")
	if err != nil {
		return nil, err
	}
	g := games.Build(spec)
	cfg := render.Config{W: 256, H: 128, Parallel: 1}
	rend := render.New(g.Scene, cfg)
	eye := g.Scene.EyeAt(g.Scene.Bounds.Center())
	pano := rend.Panorama(eye, 0, math.Inf(1), nil)
	stream := codec.Encode(pano, codec.DefaultCRF)

	// Delta fixtures mirror the server's canonical-reference rule: the
	// residual is coded between decoded reconstructions of two renders one
	// walk step apart, the realistic delta-path input.
	eye2 := g.Scene.EyeAt(g.Scene.Bounds.Center().Add(geom.V2(0.3, 0.1)))
	pano2 := rend.Panorama(eye2, 0, math.Inf(1), nil)
	ref, err := codec.Decode(stream)
	if err != nil {
		return nil, err
	}
	cur, err := codec.Decode(codec.Encode(pano2, codec.DefaultCRF))
	if err != nil {
		return nil, err
	}
	delta := codec.DeltaEncode(cur, ref, codec.DefaultCRF)

	return []microBench{
		measure("ssim.Mean/256x128", func(bb *testing.B) {
			bb.ReportAllocs()
			for i := 0; i < bb.N; i++ {
				if _, err := ssim.Mean(a, b); err != nil {
					bb.Fatal(err)
				}
			}
		}),
		// Row name kept from when the renderer had a direction LUT, so
		// bench-diff can still pair it with the recorded BENCH_n.json rows.
		measure("render.Panorama/lut", func(bb *testing.B) {
			bb.ReportAllocs()
			for i := 0; i < bb.N; i++ {
				rend.ReleaseGray(rend.Panorama(eye, 0, math.Inf(1), nil))
			}
		}),
		measure("codec.Encode/256x128", func(bb *testing.B) {
			bb.ReportAllocs()
			for i := 0; i < bb.N; i++ {
				codec.Encode(pano, codec.DefaultCRF)
			}
		}),
		measure("codec.Decode/256x128", func(bb *testing.B) {
			bb.ReportAllocs()
			for i := 0; i < bb.N; i++ {
				if _, err := codec.Decode(stream); err != nil {
					bb.Fatal(err)
				}
			}
		}),
		measure("codec.Decode/pooled", func(bb *testing.B) {
			// Decode with the output raster returned to the codec's
			// freelist: the per-frame client decode path, which must stay
			// allocation-free at steady state.
			bb.ReportAllocs()
			for i := 0; i < bb.N; i++ {
				g, err := codec.Decode(stream)
				if err != nil {
					bb.Fatal(err)
				}
				codec.ReleaseGray(g)
			}
		}),
		measure("codec.DeltaEncode/256x128", func(bb *testing.B) {
			bb.ReportAllocs()
			for i := 0; i < bb.N; i++ {
				codec.DeltaEncode(cur, ref, codec.DefaultCRF)
			}
		}),
		measure("codec.DeltaDecode/pooled", func(bb *testing.B) {
			bb.ReportAllocs()
			for i := 0; i < bb.N; i++ {
				g, err := codec.DeltaDecode(delta, ref)
				if err != nil {
					bb.Fatal(err)
				}
				codec.ReleaseGray(g)
			}
		}),
		measure("render.Reproject/256x128", func(bb *testing.B) {
			bb.ReportAllocs()
			for i := 0; i < bb.N; i++ {
				rend.ReleaseGray(rend.Reproject(pano, eye, eye2, 60))
			}
		}),
		measure("transport.FrameRequest/roundtrip", func(bb *testing.B) {
			req := transport.FrameRequest{
				Player: 1,
				Point:  geom.GridPoint{I: 42, J: -7},
				ReqID:  9,
				SentMs: 1234.5,
			}
			bb.ReportAllocs()
			for i := 0; i < bb.N; i++ {
				if _, err := transport.DecodeFrameRequest(transport.EncodeFrameRequest(req)); err != nil {
					bb.Fatal(err)
				}
			}
		}),
		measure("transport.FrameReply/roundtrip", func(bb *testing.B) {
			reply := transport.FrameReply{
				Point:   geom.GridPoint{I: 42, J: -7},
				ReqID:   9,
				RecvMs:  1000,
				SendMs:  1010,
				QueueMs: 1, RenderMs: 6, EncodeMs: 3,
				Data: stream,
			}
			bb.ReportAllocs()
			for i := 0; i < bb.N; i++ {
				if _, err := transport.DecodeFrameReply(transport.EncodeFrameReply(reply)); err != nil {
					bb.Fatal(err)
				}
			}
		}),
	}, nil
}

// writeBenchJSON assembles and writes the -bench-json report.
func writeBenchJSON(path string, parallel int, quick bool, timings []expTiming) error {
	micro, err := runMicroBenches()
	if err != nil {
		return err
	}
	throughput, err := runServerThroughput(quick)
	if err != nil {
		return err
	}
	savings, err := runDeltaSavings(quick)
	if err != nil {
		return err
	}
	deadlines, err := runDeadlineAB(quick)
	if err != nil {
		return err
	}
	scaleout, err := runClusterScaleout(quick)
	if err != nil {
		return err
	}
	overhead, err := runObsOverhead(quick)
	if err != nil {
		return err
	}
	udpTCP, err := runUDPvsTCP(quick)
	if err != nil {
		return err
	}
	rep := benchReport{
		Generated:        time.Now().UTC().Format(time.RFC3339),
		GoMaxProcs:       runtime.GOMAXPROCS(0),
		Parallel:         parallel,
		Quick:            quick,
		Experiments:      timings,
		Micro:            micro,
		ServerThroughput: throughput,
		DeltaSavings:     savings,
		DeadlineAB:       deadlines,
		ClusterScaleout:  scaleout,
		ObsOverhead:      overhead,
		UDPvsTCP:         udpTCP,
	}
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

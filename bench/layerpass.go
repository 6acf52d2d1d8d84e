package main

import (
	"fmt"
	"io"
	"strings"
	"time"

	"coterie/internal/geom"
)

// layerPass times direct calls to each layer's public functions on the
// sampled points, from one goroutine with nothing else running: the
// unloaded cost of each layer, median per call. Every call is a
// layer.<name> span under one layer_pass span. It prints the closed
// miss-path budget row to w.
func layerPass(sut *SUT, pts []geom.GridPoint, rec *Recorder, root int, w io.Writer) (map[string]val, error) {
	ops, sizes, closeFn, err := sut.LayerOps(pts)
	if err != nil {
		return nil, fmt.Errorf("layer pass: %w", err)
	}
	defer closeFn()
	out := make(map[string]val)
	for name, v := range sizes {
		out[name] = val{v: v, n: len(pts)}
	}
	t0 := time.Now()
	pass := rec.Add(root, "layer_pass", t0, 0, nil)
	// Points outside, layers inside: every layer's samples are spread over
	// the whole pass, and one point's calls sit next to each other in time, so
	// a slow stretch of the host hits all layers alike and the per-point
	// difference below stays meaningful.
	samples := make(map[string][]float64, len(ops))
	for i := range pts {
		for _, op := range ops {
			unit := time.Millisecond
			if strings.HasSuffix(op.Name, "_us") {
				unit = time.Microsecond
			}
			t := time.Now()
			for k := 0; k < op.Batch; k++ {
				op.Run(i)
			}
			d := time.Since(t)
			rec.Add(pass, "layer."+op.Name, t, d, nil)
			samples[op.Name] = append(samples[op.Name], float64(d)/float64(op.Batch)/float64(unit))
		}
	}
	rec.SetDur(pass, t0, time.Since(t0))
	for _, op := range ops {
		out[op.Name] = val{v: median(samples[op.Name]), n: len(pts) * op.Batch, spread: quartileSpread(samples[op.Name])}
	}

	// The closed budget row: unloaded, a miss costs its ray-cast, its intra
	// encode and whatever else the serve path does (scheduler slot, recon
	// decode, store insert, pano cache). The overhead is the median of the
	// per-point differences, so the three terms need not sum exactly to the
	// miss median; the row shows what is left.
	overhead := make([]float64, len(pts))
	for i := range pts {
		overhead[i] = samples["server.framefor_miss_ms"][i] - samples["render.panorama_ms"][i] - samples["codec.encode_ms"][i]
	}
	out["server.miss_overhead_ms"] = val{v: median(overhead), n: len(pts), spread: quartileSpread(overhead)}
	miss, pano, enc, over := out["server.framefor_miss_ms"].v, out["render.panorama_ms"].v, out["codec.encode_ms"].v, median(overhead)
	fmt.Fprintf(w, "budget miss-path: render.panorama_ms %.3f + codec.encode_ms %.3f + server.miss_overhead_ms %.3f = %.3f vs server.framefor_miss_ms %.3f (residual %.3f)\n",
		pano, enc, over, pano+enc+over, miss, miss-pano-enc-over)
	return out, nil
}

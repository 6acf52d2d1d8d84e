// Obsreport renders a frame-attribution report from /trace JSON: a
// per-frame stage waterfall (span schema v2 — network, server queue,
// render, encode, decode, slack) plus a QoE summary table
// (window FPS, missed-vsync ratio, frame-budget compliance, cache-hit
// rate) per player.
//
// The input is the JSON array served by the client's /trace admin
// endpoint, read from files, stdin ("-"), or fetched live from http(s)
// URLs. Several inputs merge — hand it every client's /trace to see the
// whole party:
//
//	obsreport trace.json
//	curl -s localhost:7369/trace?n=512 | obsreport -
//	obsreport -n 30 http://localhost:7369/trace?n=512
//
// With -trace, the report covers only the span of one trace id (the
// fetch that delivered a frame; obs.TraceID of its player and request id):
//
//	obsreport -trace 4295032833 http://localhost:7369/trace
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"net/http"
	"os"
	"strings"

	"coterie/internal/obs"
)

func main() {
	if err := run(); err != nil {
		log.Fatalf("obsreport: %v", err)
	}
}

func run() error {
	n := flag.Int("n", 40, "waterfall rows (most recent frames; 0 = none)")
	player := flag.Int("player", -1, "restrict to one player (-1 = all)")
	window := flag.Float64("window", 0, "QoE window in ms (0 = default)")
	budget := flag.Float64("budget", 0, "frame budget in ms (0 = 16.7)")
	barWidth := flag.Int("bar", 48, "waterfall bar width in characters")
	traceID := flag.Uint64("trace", 0, "restrict to the span of one trace id (0 = all)")
	flag.Parse()
	if flag.NArg() < 1 {
		return fmt.Errorf("usage: obsreport [flags] <trace.json | - | http://host/trace> ...")
	}

	var spans []obs.FrameSpan
	for _, src := range flag.Args() {
		s, err := loadSpans(src)
		if err != nil {
			return err
		}
		spans = append(spans, s...)
	}
	kept := spans[:0]
	for _, sp := range spans {
		if (*player < 0 || sp.Player == *player) && (*traceID == 0 || sp.TraceID == *traceID) {
			kept = append(kept, sp)
		}
	}
	spans = kept
	if len(spans) == 0 {
		return fmt.Errorf("no spans in input")
	}

	if *n > 0 {
		rows := spans
		if len(rows) > *n {
			rows = rows[len(rows)-*n:]
		}
		printWaterfall(rows, *barWidth)
		fmt.Println()
	}
	printQoE(obs.ComputeQoE(spans, obs.QoEConfig{
		WindowMs: *window,
		BudgetMs: *budget,
		Player:   -1, // per-flag filtering already happened above
	}))
	return nil
}

// loadSpans reads a /trace JSON array from a URL, stdin ("-") or a file.
func loadSpans(src string) ([]obs.FrameSpan, error) {
	var r io.ReadCloser
	switch {
	case strings.HasPrefix(src, "http://") || strings.HasPrefix(src, "https://"):
		resp, err := http.Get(src)
		if err != nil {
			return nil, err
		}
		if resp.StatusCode != http.StatusOK {
			resp.Body.Close()
			return nil, fmt.Errorf("GET %s: %s", src, resp.Status)
		}
		r = resp.Body
	case src == "-":
		r = os.Stdin
	default:
		f, err := os.Open(src)
		if err != nil {
			return nil, err
		}
		r = f
	}
	defer r.Close()
	var spans []obs.FrameSpan
	if err := json.NewDecoder(r).Decode(&spans); err != nil {
		return nil, fmt.Errorf("parsing trace JSON: %w", err)
	}
	return spans, nil
}

// waterfall segment glyphs, in pipeline order. The fetch decomposition is
// rendered sequentially (net, queue, render, encode), then
// decode, then whatever pipeline time the stages do not account for
// (local render, merge), then display slack.
const (
	glyphNet    = 'n'
	glyphQueue  = 'q'
	glyphRender = 'r'
	glyphEncode = 'e'
	glyphDecode = 'd'
	glyphOther  = '~'
	glyphSlack  = '.'
)

func printWaterfall(spans []obs.FrameSpan, width int) {
	if width < 8 {
		width = 8
	}
	maxMs := 0.0
	for _, sp := range spans {
		if d := sp.DisplayMs - sp.StartMs; d > maxMs {
			maxMs = d
		}
	}
	if maxMs <= 0 {
		maxMs = 1
	}
	fmt.Printf("stage waterfall (last %d frames, %.1f ms full scale)\n", len(spans), maxMs)
	fmt.Printf("segments: %c net  %c queue  %c render  %c encode  %c decode  %c other  %c slack\n",
		glyphNet, glyphQueue, glyphRender, glyphEncode, glyphDecode, glyphOther, glyphSlack)
	fmt.Printf("%3s %6s %9s %7s %6s %6s %6s %6s %6s %4s  bar\n",
		"ply", "frame", "start", "total", "net", "queue", "rendr", "encod", "decod", "hit")
	for _, sp := range spans {
		total := sp.DisplayMs - sp.StartMs
		pipeline := total - sp.SlackMs
		other := pipeline - sp.NetMs - sp.QueueMs - sp.RenderMs - sp.EncodeMs - sp.DecodeMs
		if other < 0 {
			other = 0
		}
		var bar strings.Builder
		scale := float64(width) / maxMs
		seg := func(ms float64, glyph rune) {
			for i := 0; i < int(ms*scale+0.5); i++ {
				bar.WriteRune(glyph)
			}
		}
		seg(sp.NetMs, glyphNet)
		seg(sp.QueueMs, glyphQueue)
		seg(sp.RenderMs, glyphRender)
		seg(sp.EncodeMs, glyphEncode)
		seg(sp.DecodeMs, glyphDecode)
		seg(other, glyphOther)
		seg(sp.SlackMs, glyphSlack)
		hit := ""
		if sp.CacheHit {
			hit = "*"
		}
		fmt.Printf("%3d %6d %9.1f %7.2f %6.2f %6.2f %6.2f %6.2f %6.2f %4s  %s\n",
			sp.Player, sp.Frame, sp.StartMs, total,
			sp.NetMs, sp.QueueMs, sp.RenderMs, sp.EncodeMs, sp.DecodeMs, hit, bar.String())
	}
}

func printQoE(q obs.QoESnapshot) {
	fmt.Printf("QoE summary (window %.0f ms ending at %.1f ms, budget %.1f ms, %d spans)\n",
		q.WindowMs, q.EndMs, q.BudgetMs, q.Spans)
	fmt.Printf("%6s %7s %8s %12s %11s %9s %9s %9s\n",
		"player", "frames", "fps", "missed-vsync", "in-budget", "hit-rate", "mean-ms", "max-ms")
	row := func(p obs.PlayerQoE, label string) {
		fmt.Printf("%6s %7d %8.1f %11.1f%% %10.1f%% %8.1f%% %9.2f %9.2f\n",
			label, p.Frames, p.WindowFPS,
			p.MissedVsyncRatio*100, p.BudgetComplianceRatio*100, p.CacheHitRate*100,
			p.MeanFrameMs, p.MaxFrameMs)
	}
	for _, p := range q.Players {
		row(p, fmt.Sprintf("%d", p.Player))
	}
	if len(q.Players) != 1 {
		row(q.All, "all")
	}
}

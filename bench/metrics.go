package main

// val is one reported number: n is the sample count behind it, spread the
// round-to-round quartile spread when it is a median across rounds.
type val struct {
	v      float64
	n      int
	spread float64
}

// overRounds is the median across rounds of a per-round rate.
func overRounds(rounds []window, f func(w *window) float64) val {
	vals := make([]float64, len(rounds))
	for i := range rounds {
		vals[i] = f(&rounds[i])
	}
	return val{v: median(vals), n: len(vals), spread: quartileSpread(vals)}
}

func ratio(a float64, b int64) float64 {
	if b == 0 {
		return 0
	}
	return a / float64(b)
}

func framesPerS(w *window) float64  { return float64(w.frames) / w.wallS }
func cpuPerFrame(w *window) float64 { return ratio(w.cpuMs, w.frames) }

func latencyRounds(rounds []window) [][]float64 {
	out := make([][]float64, len(rounds))
	for i := range rounds {
		out[i] = rounds[i].latMs
	}
	return out
}

func latencyVal(rounds []window, q float64) val {
	v, spread, n := percentileOverRounds(latencyRounds(rounds), q)
	return val{v: v, n: n, spread: spread}
}

// endToEndValues derives the end-to-end metrics of an untraced phase.
// Rates are medians across rounds; latency percentiles are medians of the
// rounds' own percentiles where every round supports them, else pooled.
func endToEndValues(ph *phase, prepareS, ssimMin float64, checked int) map[string]val {
	return map[string]val{
		"setup_s":         {v: prepareS + median(ph.setupS), n: len(ph.setupS)},
		"fetch_p50_ms":    latencyVal(ph.rounds, 0.50),
		"bytes_per_frame": overRounds(ph.rounds, func(w *window) float64 { return ratio(float64(w.bytes), w.frames) }),
		"frame_ssim_min":  {v: ssimMin, n: checked},
		"peak_rss_mb":     {v: peakRSSMB(), n: 1},
	}
}

// total merges every round's tally of a phase.
func (ph *phase) total() *tally {
	t := &tally{}
	for i := range ph.rounds {
		t.merge(&ph.rounds[i].tally)
	}
	return t
}

// demotedValues derives the end-to-end quantities that carry no bound
// (see spec.go) from one phase's rounds.
func demotedValues(ph *phase) map[string]val {
	t := ph.total()
	out := map[string]val{
		"frames_per_s":        overRounds(ph.rounds, framesPerS),
		"cpu_ms_per_frame":    overRounds(ph.rounds, cpuPerFrame),
		"within_budget_share": {v: ratio(float64(t.within), t.attempted), n: int(t.attempted)},
		"failed_share":        {v: ratio(float64(t.failed), t.attempted), n: int(t.attempted)},
	}
	for name, q := range map[string]float64{"fetch_p95_ms": 0.95, "fetch_p99_ms": 0.99} {
		if supported(int(t.frames), q) {
			out[name] = latencyVal(ph.rounds, q)
		}
	}
	return out
}

// runValues derives the per-layer metrics visible from outside the
// program during the traced phase b; a is the untraced phase of the same
// run, the base of the tracing overhead.
func runValues(a, b *phase, prepareS float64, pinOK bool) map[string]val {
	t := b.total()
	n := int(t.frames)
	share := func(x int64) val { return val{v: ratio(float64(x), t.frames), n: n} }
	count := func(x int64) val { return val{v: float64(x), n: 1} }
	out := demotedValues(b)
	for k, v := range map[string]val{

		"server.queue_ms":       {v: ratio(t.queueMs, t.renders+t.joins), n: int(t.renders + t.joins)},
		"server.hit_share":      share(t.hits),
		"server.join_share":     share(t.joins),
		"server.render_share":   share(t.renders),
		"server.delta_share":    share(t.deltas),
		"server.degraded_share": share(t.degraded),
		"server.render_ms":      {v: ratio(t.renderMs, t.renders), n: int(t.renders)},
		"server.encode_ms":      {v: ratio(t.encodeMs, t.renders), n: int(t.renders)},
		"server.residual_ms":    {v: ratio(t.residualMs, t.renders), n: int(t.renders)},
		"server.hit_rtt_us":     {v: 1e3 * ratio(t.hitRTTMs, t.hits), n: int(t.hits)},
		"server.rendered":       count(b.rendered),
		"server.store_bytes":    count(b.store.StoreBytes),
		"server.store_frames":   count(int64(b.store.StoreFrames)),
		"server.evictions":      count(b.store.Evictions),
		"server.prerender_s":    {v: b.prerenderS, n: 1},

		"server.push_frames":     count(b.udp.PushedRecv),
		"server.push_hit_share":  {v: ratio(float64(b.udp.PushServes), t.frames), n: n},
		"server.push_used_share": {v: ratio(float64(b.udp.PushedUsed), b.udp.PushedRecv), n: int(b.udp.PushedRecv)},

		"transport.nacks":             count(b.udp.NacksSent),
		"transport.fec_recovered":     count(b.udp.Reassembly.Recovered),
		"transport.corrupt":           count(b.udp.Reassembly.Corrupt),
		"transport.dup_drops":         count(b.udp.Reassembly.DroppedDup),
		"transport.tcp_fallbacks":     count(t.fallbacks),
		"transport.wire_down_bytes":   count(b.wireDown),
		"transport.wire_up_bytes":     count(b.wireUp),
		"transport.datagrams_dropped": count(b.dropped),

		"core.prepare_env_s": {v: prepareS, n: 1},
	} {
		out[k] = v
	}
	if late := sortedCopy(t.lateMs); supported(len(late), 0.99) {
		out["bench.generator_late_p99_ms"] = val{v: percentile(late, 0.99), n: len(late)}
	}

	// Counters only the program knows, read from the registry handed to
	// Server.Instrument in the traced phase.
	acc, rej := b.registry["server.reproject_hits"], b.registry["server.reproject_rejects"]
	out["server.reproject_accepts"] = count(acc)
	out["server.reproject_rejects"] = count(rej)
	out["server.reproject_accept_share"] = val{v: ratio(float64(acc), acc+rej), n: int(acc + rej)}

	// The replay workload's clients report for themselves.
	if k := len(b.live); k > 0 {
		var fps, hit, p99, inter, net []float64
		var c struct{ hits, exact, misses, evict, issued, delivered, busy, shown, drops int64 }
		for _, rep := range b.live {
			fps = append(fps, rep.Metrics.FPS)
			hit = append(hit, rep.Metrics.CacheHitRatio)
			p99 = append(p99, rep.Metrics.P99InterFrameMs)
			inter = append(inter, rep.Metrics.InterFrameMs)
			net = append(net, rep.Metrics.NetDelayMs)
			c.hits += rep.Cache.Hits
			c.exact += rep.Cache.ExactHits
			c.misses += rep.Cache.Misses
			c.evict += rep.Cache.Evictions
			c.issued += rep.Prefetch.Issued
			c.delivered += rep.Prefetch.Delivered
			c.busy += rep.Prefetch.SkippedBusy
			c.shown += rep.Metrics.Frames
			c.drops += rep.FIDrops
		}
		out["client_fps"] = val{v: mean(fps), n: k}
		out["client_hit_ratio"] = val{v: mean(hit), n: k}
		out["client_interframe_p99_ms"] = val{v: mean(p99), n: k}
		out["runtime.interframe_ms"] = val{v: mean(inter), n: k}
		out["runtime.net_delay_ms"] = val{v: mean(net), n: k}
		out["runtime.frames_displayed"] = count(c.shown)
		out["cache.hits"] = count(c.hits)
		out["cache.exact_hits"] = count(c.exact)
		out["cache.misses"] = count(c.misses)
		out["cache.evictions"] = count(c.evict)
		out["prefetch.issued"] = count(c.issued)
		out["prefetch.delivered"] = count(c.delivered)
		out["prefetch.skipped_busy"] = count(c.busy)
		out["fisync.drops"] = count(c.drops)
	}

	// About the harness itself.
	var spins []float64
	for _, ph := range []*phase{a, b} {
		for i := range ph.rounds {
			spins = append(spins, ph.rounds[i].spinMs)
		}
	}
	out["bench.host_spin_ms"] = val{v: median(spins), n: len(spins), spread: quartileSpread(spins)}
	if base := overRounds(a.rounds, cpuPerFrame).v; base > 0 {
		out["bench.trace_overhead_share"] = val{v: (overRounds(b.rounds, cpuPerFrame).v - base) / base, n: len(a.rounds) + len(b.rounds)}
	}
	fps := overRounds(a.rounds, framesPerS)
	out["bench.round_spread"] = val{v: fps.spread, n: fps.n}
	out["bench.input_pin_ok"] = val{v: 0, n: 1}
	if pinOK {
		out["bench.input_pin_ok"] = val{v: 1, n: 1}
	}
	return out
}

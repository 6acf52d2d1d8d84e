package runtime

import (
	"math"
	"sort"

	"coterie/internal/cache"
	"coterie/internal/device"
	"coterie/internal/fisync"
	"coterie/internal/geom"
	"coterie/internal/netsim"
	"coterie/internal/obs"
	"coterie/internal/prefetch"
	"coterie/internal/trace"
)

// Deps are the backend-provided collaborators of one client pipeline.
// Clock, FI and Trace are always required; Source (plus Cache/Prefetcher
// for BE-prefetching systems) and the reporting hooks depend on the
// system under test.
type Deps struct {
	Clock Clock
	FI    FISync
	Trace *trace.Trace
	// Source delivers BE frames (thin-client and BE-prefetching systems).
	Source FrameSource
	// Cache and Prefetcher drive the far-BE prefetch path; both are
	// single-threaded and only touched from clock callbacks.
	Cache      *cache.Cache
	Prefetcher *prefetch.Prefetcher
	// Net feeds the resource model's bandwidth-share estimate; nil means
	// no network activity (Mobile).
	Net NetMonitor
	// Latencies receives per-transfer delays recorded by the Source;
	// the pipeline reads the mean for PlayerMetrics.NetDelayMs.
	Latencies *LatencyAcc
	// Obs, when non-nil, receives the pipeline's metrics and per-frame
	// stage spans, and is wired through to the cache and prefetcher so
	// the same instruments light up under every backend. Nil disables
	// instrumentation at near-zero cost.
	Obs *obs.Registry
}

// Client runs the per-frame pipeline for one player over a backend. It is
// not goroutine-safe: Start and every callback run on the clock goroutine.
type Client struct {
	cfg   Config
	id    int
	clock Clock
	fi    FISync
	tr    *trace.Trace
	cache *cache.Cache
	pf    *prefetch.Prefetcher
	src   FrameSource
	// stages is the source's optional client/server trace capability (span
	// schema v2); nil when the source does not report stage decompositions.
	stages StageReporter
	// deadlines is the source's optional deadline capability: when non-nil,
	// the pipeline stamps each fetch-triggering call with the virtual time
	// its reply is needed by, and the server prioritises against it.
	deadlines DeadlineSetter
	net       NetMonitor
	lat       *LatencyAcc
	therm     *device.Thermal

	seq uint32
	// prevPredicted is the grid point the previous frame's prefetch
	// request targeted; Furion-style systems display the frame prefetched
	// for that prediction (§2.2 steps 3-4).
	prevPredicted    geom.GridPoint
	hasPrevPredicted bool

	lastDisplay float64
	frames      int64
	interSum    float64
	inters      []float32
	respSum     float64
	cpuSum      float64
	gpuSum      float64
	powerSum    float64
	sizeSum     float64
	sizeCount   int64
	series      []SeriesPoint
	secCPU      float64
	secGPU      float64
	secPower    float64
	secWeight   float64
	curSec      int

	// Observability: histograms/counters resolved once at construction
	// (nil-safe no-ops when Deps.Obs is nil), a trace ring, and one pooled
	// span filled in place each frame — the pipeline is single-threaded,
	// and a frame's display callback always runs before the next frame
	// starts, so one slot suffices and the hot path never allocates.
	obs  pipelineObs
	ring *obs.TraceRing
	span obs.FrameSpan
}

// pipelineObs are the pipeline's registry instruments: the per-stage
// breakdown of the frame budget (Eq. 2) the paper's Tables 1/5 report.
type pipelineObs struct {
	frames    *obs.Counter
	interMs   *obs.Histogram
	respMs    *obs.Histogram
	fetchMs   *obs.Histogram
	decodeMs  *obs.Histogram
	joinMs    *obs.Histogram
	slackMs   *obs.Histogram
	cacheMiss *obs.Counter
	cacheHit  *obs.Counter
	// Client/server fetch decomposition (span schema v2), observed once
	// per delivering fetch rather than per frame.
	netMs          *obs.Histogram
	queueMs        *obs.Histogram
	serverRenderMs *obs.Histogram
	serverEncodeMs *obs.Histogram
}

// instrumentPipeline resolves the pipeline instruments from a registry.
func instrumentPipeline(r *obs.Registry) pipelineObs {
	return pipelineObs{
		frames:    r.Counter("frames.displayed"),
		interMs:   r.Histogram("frame.inter_ms"),
		respMs:    r.Histogram("frame.responsiveness_ms"),
		fetchMs:   r.Histogram("frame.fetch_ms"),
		decodeMs:  r.Histogram("frame.decode_ms"),
		joinMs:    r.Histogram("frame.join_ms"),
		slackMs:   r.Histogram("frame.display_slack_ms"),
		cacheHit:  r.Counter("frames.display_cache_hits"),
		cacheMiss: r.Counter("frames.display_cache_misses"),

		netMs:          r.Histogram("frame.net_ms"),
		queueMs:        r.Histogram("frame.queue_ms"),
		serverRenderMs: r.Histogram("frame.server_render_ms"),
		serverEncodeMs: r.Histogram("frame.server_encode_ms"),
	}
}

// NewClient builds a pipeline for one player. When Deps.Obs is set, the
// client wires the registry through to its cache and prefetcher too, so
// one call site lights up the whole per-client instrument set identically
// under the simulated and live backends.
func NewClient(id int, cfg Config, d Deps) *Client {
	c := &Client{
		cfg:   cfg,
		id:    id,
		clock: d.Clock,
		fi:    d.FI,
		tr:    d.Trace,
		cache: d.Cache,
		pf:    d.Prefetcher,
		src:   d.Source,
		net:   d.Net,
		lat:   d.Latencies,
		therm: cfg.Device.NewThermal(),
	}
	c.stages, _ = d.Source.(StageReporter)
	c.deadlines, _ = d.Source.(DeadlineSetter)
	if d.Obs != nil {
		c.obs = instrumentPipeline(d.Obs)
		c.ring = d.Obs.Trace()
		if c.cache != nil {
			c.cache.Instrument(d.Obs)
		}
		if c.pf != nil {
			c.pf.Instrument(d.Obs)
		}
	}
	return c
}

// Start begins the frame loop; each displayed frame schedules the next.
func (c *Client) Start() { c.frame() }

// Cache returns the client's frame cache (nil for non-caching systems).
func (c *Client) Cache() *cache.Cache { return c.cache }

// frame starts one per-frame pipeline iteration for the client (§5.1): it
// samples the pose, synchronises FI, runs the system-specific rendering
// path, and schedules the display completion, which in turn starts the
// next frame.
func (c *Client) frame() {
	now := c.clock.Now()
	if now >= c.cfg.EndMs {
		return
	}
	tick := int(now / TickMs)
	if tick >= c.tr.Len() {
		return
	}
	pos := c.tr.Pos[tick]
	vel := c.velocity(tick)

	// Reset the pooled span for this frame. The struct stores are cheap
	// and unconditional; whether the span is published is decided by the
	// ring at display time.
	c.span = obs.FrameSpan{Player: c.id, Frame: c.frames + 1, StartMs: now}

	// FI synchronisation through the server (task 4); the latency is part
	// of the Eq. 2 max, which the join below accounts for.
	c.seq++
	st := fisync.State{
		Player:  uint8(c.id),
		Seq:     c.seq,
		Pos:     pos,
		Heading: math.Atan2(vel.Z, vel.X),
	}

	dev := c.cfg.Device
	switch c.cfg.System {
	case Mobile:
		c.fi.Sync(st, now, nil)
		renderMs := dev.FullSceneRenderMs(int(float64(c.cfg.TotalTriangles)/c.cfg.LODFactor)) + dev.FIRenderMs
		c.span.LocalMs = renderMs
		c.display(now, now+renderMs, renderMs, false, 0)

	case ThinClient:
		c.fi.Sync(st, now, nil)
		// Sequential remote pipeline: render + encode on the server, then
		// transfer, then hardware decode and display locally.
		pt := c.cfg.Grid.Snap(pos)
		c.setDeadline(now + dev.VsyncMs)
		c.src.Fetch(c.id, pt, func(_ []byte, size int, _, end float64) {
			c.noteSize(size)
			decodeMs := dev.DecodeMs(size)
			readyAt := end + decodeMs + mergeMs
			c.span.LocalMs = thinOverlayMs
			c.span.FetchMs = end - now
			c.span.DecodeMs = decodeMs
			c.fillFetchStages()
			c.display(now, readyAt, thinOverlayMs, true, size)
		})

	default: // BE-prefetching systems (Multi-Furion variants, Coterie)
		// Per Eq. 2, the frame interval is the max over the four parallel
		// tasks plus merging. FI sync joins as a task: the hub backend
		// completes it inline at the modelled latency, the UDP backend
		// when the reply datagram lands.
		join := &frameJoin{pending: 1, ready: now}
		join.pending++
		c.fi.Sync(st, now, join.arrive)

		cur := c.cfg.Grid.Snap(pos)
		c.cache.SetPlayerPos(pos)

		localMs := dev.FIRenderMs
		if c.cfg.System.SplitsNearFar() {
			radius := c.cfg.RadiusAt(pos)
			tris := c.cfg.TrianglesWithin(pos, radius)
			localMs += dev.NearBEFrameMs(tris)
		}

		// Prefetch request for the upcoming grid point (task 3): cache
		// first, server on miss. This stream defines the cache hit ratio.
		look := c.pf.Cfg.LookaheadSec
		predicted := c.cfg.Grid.Snap(geom.V2(pos.X+vel.X*look, pos.Z+vel.Z*look))
		// The prefetched frame is needed when the player reaches the
		// predicted point — the lookahead horizon, floored at two display
		// intervals so a tiny lookahead never makes speculative traffic
		// more urgent than the frame on screen.
		c.setDeadline(now + math.Max(look*1000, 2*dev.VsyncMs))
		if c.pf.RequestTracked(predicted, func(_ int, at float64) {
			c.span.PrefetchMs = at - now
			join.arrive(at)
		}) {
			c.span.Prefetched = true
			join.pending++
		}

		// The display blocks on the BE frame for this interval (task 2).
		// Coterie looks the current point up in the similarity cache;
		// Furion-style systems decode whatever the previous frame's
		// prefetch targeted ("decode previously prefetched BE for grid
		// point i", §2.2).
		need := cur
		if !c.cfg.System.SimilarityCache() && c.hasPrevPredicted {
			need = c.prevPredicted
		}
		c.prevPredicted, c.hasPrevPredicted = predicted, true

		join.fire = func(tasksReady float64) {
			// The display blocks on this frame: its reply is needed by the
			// next vsync.
			c.setDeadline(now + dev.VsyncMs)
			c.pf.Ensure(need, now, func(size int, readyAt float64) {
				c.noteSize(size)
				decodeMs := dev.DecodeMs(size)
				decodeDone := readyAt + decodeMs
				tasksDone := math.Max(math.Max(now+localMs, tasksReady), decodeDone)
				// Stage spans: Ensure answers at now exactly when the
				// display frame came out of the cache; anything later is
				// the fetch RTT the display blocked on.
				c.span.LocalMs = localMs
				c.span.FetchMs = readyAt - now
				c.span.DecodeMs = decodeMs
				c.span.JoinMs = tasksReady - now
				c.span.CacheHit = readyAt == now
				if !c.span.CacheHit {
					c.fillFetchStages()
				}
				c.display(now, tasksDone+mergeMs, localMs, true, size)
			})
		}
		join.arrive(now)
	}
}

// frameJoin waits for the parallel per-frame tasks of Eq. 2 and fires once
// with the latest completion time.
type frameJoin struct {
	pending int
	ready   float64
	fire    func(readyAt float64)
}

func (j *frameJoin) arrive(at float64) {
	if at > j.ready {
		j.ready = at
	}
	j.pending--
	if j.pending == 0 && j.fire != nil {
		j.fire(j.ready)
	}
}

// velocity estimates the player's velocity in m/s from the trace.
func (c *Client) velocity(tick int) geom.Vec2 {
	const horizon = 6 // ticks (100 ms)
	j := tick + horizon
	if j >= c.tr.Len() {
		j = c.tr.Len() - 1
	}
	if j <= tick {
		return geom.Vec2{}
	}
	d := c.tr.Pos[j].Sub(c.tr.Pos[tick])
	return d.Scale(trace.TickHz / float64(j-tick))
}

// fillFetchStages copies the delivering fetch's client/server stage
// decomposition into this frame's span (span schema v2). It must be called
// inside the fetch's done callback: completion waiters fire synchronously
// there on the clock goroutine, so the source's "last completed fetch" is
// exactly the fetch that delivered this frame.
func (c *Client) fillFetchStages() {
	if c.stages == nil {
		return
	}
	st := c.stages.LastFetchStages()
	if !st.Valid {
		return
	}
	c.span.NetMs = st.NetMs
	c.span.TraceID = st.TraceID
	c.span.QueueMs = st.QueueMs
	c.span.RenderMs = st.RenderMs
	c.span.EncodeMs = st.EncodeMs
	c.span.DeltaFrame = st.DeltaFrame
	c.span.DegradeRung = st.DegradeRung
}

// setDeadline stamps the source's next fetch with the virtual time its
// reply is needed by, when the source supports deadlines.
func (c *Client) setDeadline(virtualMs float64) {
	if c.deadlines != nil {
		c.deadlines.SetFetchDeadline(virtualMs)
	}
}

func (c *Client) noteSize(size int) {
	c.sizeSum += float64(size)
	c.sizeCount++
}

// display schedules the frame completion: the pipeline is ready at
// readyAt, the frame reaches the display at the vsync-floored time.
// Responsiveness (motion-to-photon) counts pose sampling to pipeline
// readiness — a pipeline faster than the refresh interval yields
// responsiveness below 16.7 ms, as in Table 7.
func (c *Client) display(start, readyAt float64, renderMs float64, decoding bool, size int) {
	dev := c.cfg.Device
	displayAt := readyAt
	if min := start + dev.VsyncMs; displayAt < min {
		displayAt = min
	}
	c.clock.At(displayAt, func() {
		if c.lastDisplay == 0 {
			c.lastDisplay = start
		}
		inter := displayAt - c.lastDisplay
		c.lastDisplay = displayAt
		c.frames++
		c.interSum += inter
		c.inters = append(c.inters, float32(inter))
		resp := sensorMs + (readyAt - start)
		c.respSum += resp

		// Publish this frame's stage spans and latency observations. The
		// span was filled in place across the frame's callbacks, all of
		// which run before this display event.
		c.span.DisplayMs = displayAt
		c.span.SlackMs = displayAt - readyAt
		c.obs.frames.Inc()
		c.obs.interMs.Observe(inter)
		c.obs.respMs.Observe(resp)
		c.obs.fetchMs.Observe(c.span.FetchMs)
		c.obs.decodeMs.Observe(c.span.DecodeMs)
		c.obs.joinMs.Observe(c.span.JoinMs)
		c.obs.slackMs.Observe(c.span.SlackMs)
		if c.span.NetMs+c.span.QueueMs+c.span.RenderMs+c.span.EncodeMs > 0 {
			c.obs.netMs.Observe(c.span.NetMs)
			c.obs.queueMs.Observe(c.span.QueueMs)
			c.obs.serverRenderMs.Observe(c.span.RenderMs)
			c.obs.serverEncodeMs.Observe(c.span.EncodeMs)
		}
		if decoding && c.cfg.System.UsesBEPrefetch() {
			if c.span.CacheHit {
				c.obs.cacheHit.Inc()
			} else {
				c.obs.cacheMiss.Inc()
			}
		}
		c.ring.Record(&c.span)

		// Resource accounting over this frame interval.
		netMbps := c.currentNetMbps()
		cpu := dev.CPUUtil(renderMs, decoding, netMbps)
		gpu := dev.GPUUtil(renderMs, inter)
		power := dev.PowerW(cpu, gpu, netMbps)
		c.therm.Step(power, inter/1000)
		c.cpuSum += cpu
		c.gpuSum += gpu
		c.powerSum += power
		c.bucket(displayAt, cpu, gpu, power, inter)

		c.frame()
	})
}

// currentNetMbps estimates the client's instantaneous download rate from
// its share of the medium.
func (c *Client) currentNetMbps() float64 {
	if c.net == nil {
		return 0
	}
	active := c.net.ActiveTransfers()
	if active == 0 {
		return 0
	}
	// This client's flows get an equal share; approximate by assuming it
	// owns one of the active transfers.
	return netsim.GoodputMbps / float64(active)
}

// bucket accumulates per-second resource series samples (Fig 12).
func (c *Client) bucket(now float64, cpu, gpu, power, weight float64) {
	sec := int(now / 1000)
	if sec != c.curSec && c.secWeight > 0 {
		c.series = append(c.series, SeriesPoint{
			Sec:    c.curSec,
			CPUPct: c.secCPU / c.secWeight * 100,
			GPUPct: c.secGPU / c.secWeight * 100,
			PowerW: c.secPower / c.secWeight,
			TempC:  c.therm.Temperature(),
		})
		c.secCPU, c.secGPU, c.secPower, c.secWeight = 0, 0, 0, 0
	}
	c.curSec = sec
	c.secCPU += cpu * weight
	c.secGPU += gpu * weight
	c.secPower += power * weight
	c.secWeight += weight
}

// Series returns the per-second resource samples accumulated so far.
func (c *Client) Series() []SeriesPoint { return c.series }

// Metrics finalises the client's aggregates.
func (c *Client) Metrics() PlayerMetrics {
	m := PlayerMetrics{Frames: c.frames, TempC: c.therm.Temperature()}
	if c.frames > 0 {
		m.InterFrameMs = c.interSum / float64(c.frames)
		sorted := append([]float32(nil), c.inters...)
		sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
		m.P95InterFrameMs = float64(sorted[int(0.95*float64(len(sorted)-1))])
		m.P99InterFrameMs = float64(sorted[int(0.99*float64(len(sorted)-1))])
		m.ResponsivenessMs = c.respSum / float64(c.frames)
		m.CPUPct = c.cpuSum / float64(c.frames) * 100
		m.GPUPct = c.gpuSum / float64(c.frames) * 100
		m.PowerW = c.powerSum / float64(c.frames)
	}
	elapsed := c.lastDisplay / 1000
	if elapsed <= 0 {
		elapsed = c.cfg.EndMs / 1000
	}
	m.FPS = float64(c.frames) / elapsed
	if c.sizeCount > 0 {
		m.FrameKB = c.sizeSum / float64(c.sizeCount) / 1024
	}
	if c.lat != nil && c.net != nil {
		m.NetDelayMs = c.lat.Mean()
		m.BEMbps = float64(c.net.FlowBytes(c.id)) * 8 / 1e6 / (c.cfg.EndMs / 1000)
	}
	if c.cache != nil {
		m.CacheHitRatio = c.cache.Stats().HitRatio()
	}
	if c.pf != nil {
		m.PrefetchIssued = c.pf.Stats().Issued
	}
	return m
}

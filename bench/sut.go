package main

// sut.go is the adapter to the system under test: every call the
// benchmark makes into the repository's packages goes through this file,
// so a refactor of the client/serve packages needs a mechanical edit here
// and nowhere else. Other bench files import coterie/internal/... only for
// plain data types (grid points, replies, reports).

import (
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math"
	"net"
	"sync"
	"time"

	"coterie/internal/cache"
	"coterie/internal/codec"
	"coterie/internal/core"
	"coterie/internal/fisync"
	"coterie/internal/games"
	"coterie/internal/geom"
	"coterie/internal/img"
	"coterie/internal/obs"
	"coterie/internal/prefetch"
	"coterie/internal/render"
	"coterie/internal/sched"
	"coterie/internal/server"
	"coterie/internal/ssim"
	"coterie/internal/trace"
	"coterie/internal/transport"
)

// budgetMs is the paper's per-frame budget (60 Hz vsync).
const budgetMs = obs.FrameBudgetMs

// ssimFloor is the bar every served frame must clear against an
// independent ray-cast of its grid point, or the run fails. It sits 0.05
// under ssim.GoodThreshold: intra coding at the default CRF alone reaches
// 0.897 on the densest viking viewpoints (min over 1280 scattered points),
// so the paper's 0.90 would fail the unchanged system on some seeds. A
// frame of the wrong point scores far lower.
const ssimFloor = ssim.GoodThreshold - 0.05

// SUT is one prepared game environment, shared by every server the
// benchmark starts in this process.
type SUT struct {
	env *core.Env
	// PrepareS is the wall time core.PrepareEnv took.
	PrepareS float64
}

// PrepareSUT runs the per-app installation step (cutoff map, thresholds,
// size model) at the default 256x128 panorama resolution. small shrinks
// the resolution and calibration sampling so the harness self-tests run in
// seconds; it is never used for a reported number.
func PrepareSUT(game string, small bool) (*SUT, error) {
	spec, err := games.ByName(game)
	if err != nil {
		return nil, err
	}
	var opts core.EnvOptions
	if small {
		opts = core.EnvOptions{RenderCfg: render.Config{W: 64, H: 32}, ThresholdLeaves: 1, SizeSamples: 1}
	}
	t0 := time.Now()
	env, err := core.PrepareEnv(spec, opts)
	if err != nil {
		return nil, fmt.Errorf("prepare %s: %w", game, err)
	}
	return &SUT{env: env, PrepareS: time.Since(t0).Seconds()}, nil
}

// Game returns the hosted game's short name.
func (s *SUT) Game() string { return s.env.Game.Spec.Name }

// Grid returns the game's grid.
func (s *SUT) Grid() geom.Grid { return s.env.Game.Scene.Grid }

// Resolution returns the panorama size in pixels.
func (s *SUT) Resolution() (w, h int) { return s.env.Renderer.Cfg.W, s.env.Renderer.Cfg.H }

// Party generates the repo's paper-calibrated movement traces for p
// players playing together.
func (s *SUT) Party(p int, seconds float64, seed int64) []*trace.Trace {
	return trace.GenerateParty(s.env.Game, p, seconds, seed)
}

// Host is one in-process frame server listening on loopback TCP and UDP
// (same port, like the real server binary).
type Host struct {
	sut  *SUT
	srv  *server.Server
	ln   net.Listener
	pc   net.PacketConn
	reg  *obs.Registry
	done sync.WaitGroup
	// Addr is the host:port both listeners share.
	Addr string
}

// StartHost starts a fresh server.New(env) with a cold, unbounded store.
// traced attaches an obs.Registry through the public Instrument; push
// enables trajectory-driven push on the datagram path.
func (s *SUT) StartHost(traced, push bool) (*Host, error) {
	h := &Host{sut: s, srv: server.New(s.env)}
	// Session open/close logs are per-connection noise on stderr.
	h.srv.Logger = slog.New(slog.NewTextHandler(io.Discard, &slog.HandlerOptions{Level: slog.LevelError + 1}))
	if traced {
		h.reg = obs.NewRegistry()
		h.srv.Instrument(h.reg)
	}
	h.srv.SetPushEnabled(push)
	var err error
	for attempt := 0; attempt < 8; attempt++ {
		if h.ln, err = net.Listen("tcp", "127.0.0.1:0"); err != nil {
			return nil, err
		}
		// The UDP port of the same number may be taken; pick another pair.
		if h.pc, err = net.ListenPacket("udp", h.ln.Addr().String()); err == nil {
			break
		}
		h.ln.Close()
	}
	if err != nil {
		return nil, fmt.Errorf("listen udp beside tcp: %w", err)
	}
	h.Addr = h.ln.Addr().String()
	h.done.Add(2)
	go func() {
		defer h.done.Done()
		h.srv.Serve(h.ln) // returns nil once the listener closes
	}()
	go func() {
		defer h.done.Done()
		h.srv.ServeFIUDP(h.pc)
	}()
	return h, nil
}

// Close stops both listeners and waits for the serve loops. Sessions must
// already be closed: Serve drains them before returning.
func (h *Host) Close() {
	h.ln.Close()
	h.pc.Close()
	h.done.Wait()
}

// Prerender renders and stores exactly the given points (the paper's
// offline pre-render of reachable ground) on the given number of workers.
func (h *Host) Prerender(pts []geom.GridPoint, workers int) error {
	var wg sync.WaitGroup
	errs := make([]error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(pts); i += workers {
				if _, err := h.srv.FrameFor(pts[i]); err != nil {
					errs[w] = err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// HostCounts is what the server reports about itself without a registry.
type HostCounts struct {
	Served, Rendered      int64
	StoreBytes, Evictions int64
	StoreFrames           int
}

// Counts reads Server.Stats and Server.StoreStats.
func (h *Host) Counts() HostCounts {
	var c HostCounts
	c.Served, c.Rendered = h.srv.Stats()
	c.StoreBytes, c.Evictions, c.StoreFrames = h.srv.StoreStats()
	return c
}

// Registry snapshots the counters and gauges of the traced host's
// registry; nil when the host is untraced.
func (h *Host) Registry() map[string]int64 {
	if h.reg == nil {
		return nil
	}
	return flattenRegistry(h.reg)
}

func flattenRegistry(reg *obs.Registry) map[string]int64 {
	snap := reg.Snapshot()
	out := make(map[string]int64, len(snap.Counters)+len(snap.Gauges))
	for k, v := range snap.Counters {
		out[k] = v
	}
	for k, v := range snap.Gauges {
		out[k] = v
	}
	return out
}

// Session is one synchronous TCP frame session (one request in flight).
type Session struct{ cl *server.Client }

// Dial opens a TCP session for a player.
func (h *Host) Dial(player int) (*Session, error) {
	cl, err := server.Dial(h.Addr, h.sut.Game(), uint8(player))
	if err != nil {
		return nil, err
	}
	return &Session{cl: cl}, nil
}

// Fetch requests one frame. shed reports an application-level rejection
// (admission control) that leaves the session usable; any other error is
// fatal to the session.
func (s *Session) Fetch(pt geom.GridPoint) (reply transport.FrameReply, shed bool, err error) {
	reply, _, _, err = s.cl.FetchTraced(pt)
	var se *server.ServerError
	return reply, errors.As(err, &se), err
}

// Close ends the session cleanly.
func (s *Session) Close() { s.cl.Close() }

// CheckReply is the cheap per-reply output check of the timed path: the
// payload is non-empty, parses as a known frame kind that agrees with the
// reply header, and the reply echoes the requested point.
func CheckReply(reply transport.FrameReply, want geom.GridPoint) error {
	if reply.Point != want {
		return fmt.Errorf("reply for %v echoes %v", want, reply.Point)
	}
	return checkPayload(reply.Data, reply.Kind)
}

func checkPayload(data []byte, kind transport.FrameEncoding) error {
	if len(data) == 0 {
		return errors.New("empty frame payload")
	}
	switch codec.Kind(data) {
	case codec.KindIntra:
		if kind != transport.FrameIntra {
			return errors.New("intra payload in a delta reply")
		}
	case codec.KindDelta:
		if kind != transport.FrameDelta {
			return errors.New("delta payload in an intra reply")
		}
	default:
		return errors.New("payload is not a known frame kind")
	}
	return nil
}

// Datagram is one client-side UDP frame channel (FI sync, pushes and
// request/reply fetches on one socket).
type Datagram struct{ ch *server.UDPChannel }

// DialDatagram subscribes a player's UDP channel at addr (the server's UDP
// socket, or a relay in front of it) with push opted in.
func DialDatagram(addr string, player int) (*Datagram, error) {
	ch, err := server.DialUDP(addr, uint8(player), true, nil)
	if err != nil {
		return nil, err
	}
	return &Datagram{ch: ch}, nil
}

// Sync uploads the tick's FI state (the position the server's push
// predictor extrapolates); a lost round is not an error, the next tick
// syncs again.
func (d *Datagram) Sync(player int, seq uint32, pos geom.Vec2, timeout time.Duration) {
	d.ch.Sync(fisync.State{Player: uint8(player), Seq: seq, Pos: pos}, timeout)
}

// Fetch asks for a frame over UDP; ok=false means fall back to TCP. The
// payload is checked like a TCP reply's (UDP frames are always intra).
func (d *Datagram) Fetch(pt geom.GridPoint, budget time.Duration) (data []byte, ok bool, err error) {
	data, ok = d.ch.Fetch(pt, budget)
	if !ok {
		return nil, false, nil
	}
	return data, true, checkPayload(data, transport.FrameIntra)
}

// Stats snapshots the channel's accounting.
func (d *Datagram) Stats() server.UDPStats { return d.ch.Stats() }

// Close tears the channel down and joins its receive loop.
func (d *Datagram) Close() { d.ch.Close() }

// RunLive replays one player's trace in real time through the full client
// (runtime pipeline, similarity cache, prefetcher, delta decode) against
// the host. The registry snapshot is nil unless traced.
func (h *Host) RunLive(tr *trace.Trace, player int, traced bool) (*server.LiveReport, map[string]int64, error) {
	cfg := server.LiveConfig{Speed: 1, DecodeFrames: true, IdleTimeout: 10 * time.Second}
	if traced {
		cfg.Obs = obs.NewRegistry()
	}
	rep, err := server.RunLive(h.sut.env, h.Addr, tr, player, cfg)
	if err != nil {
		return rep, nil, err
	}
	if !traced {
		return rep, nil, nil
	}
	return rep, flattenRegistry(cfg.Obs), nil
}

// groundTruth ray-casts the far-BE panorama of a grid point directly,
// independent of any server state. The raster is renderer-pooled.
func (s *SUT) groundTruth(pt geom.GridPoint) (*img.Gray, error) {
	pos := s.Grid().Pos(pt)
	leaf := s.env.Map.LeafAt(pos)
	if leaf == nil {
		return nil, fmt.Errorf("no leaf region at %v", pt)
	}
	return s.env.Renderer.Panorama(s.env.Game.Scene.EyeAt(pos), leaf.Radius, math.Inf(1), nil), nil
}

// CheckFrames is the output check outside the timed window: it re-fetches
// the points on a fresh session, decodes each reply exactly as a client
// does (codec.Decode, or codec.DeltaDecode against the held intra frame the
// reply names) and returns the minimum SSIM against an independent
// ray-cast. Byte equality is deliberately not the check: frame bytes depend
// on request history on two or more cores (ROADMAP P0).
func (h *Host) CheckFrames(pts []geom.GridPoint) (minSSIM float64, err error) {
	sess, err := h.Dial(0)
	if err != nil {
		return 0, err
	}
	defer sess.Close()
	held := make(map[geom.GridPoint]*img.Gray) // decoded intra frames, as a client's reference store
	minSSIM = 1
	for _, pt := range pts {
		reply, _, err := sess.Fetch(pt)
		if err != nil {
			return 0, fmt.Errorf("verify %v: %w", pt, err)
		}
		if err := CheckReply(reply, pt); err != nil {
			return 0, fmt.Errorf("verify %v: %w", pt, err)
		}
		var got *img.Gray
		if reply.Kind == transport.FrameDelta {
			ref := held[reply.Ref]
			if ref == nil {
				return 0, fmt.Errorf("verify %v: delta against %v, which this session does not hold", pt, reply.Ref)
			}
			got, err = codec.DeltaDecode(reply.Data, ref)
		} else {
			got, err = codec.Decode(reply.Data)
			held[pt] = got
		}
		if err != nil {
			return 0, fmt.Errorf("verify %v: %w", pt, err)
		}
		want, err := h.sut.groundTruth(pt)
		if err != nil {
			return 0, err
		}
		score, err := ssim.Mean(want, got)
		h.sut.env.Renderer.ReleaseGray(want)
		if err != nil {
			return 0, fmt.Errorf("verify %v: %w", pt, err)
		}
		minSSIM = math.Min(minSSIM, score)
	}
	return minSSIM, nil
}

// LayerOp is one layer's public function prepared for direct timing by the
// layer pass: Run(i) performs Batch calls on the i-th sampled point with
// every input precomputed.
type LayerOp struct {
	Name  string // metric name; the unit is its suffix (_ms or _us)
	Batch int
	Run   func(i int)
}

// layerInputs holds the per-point inputs the layer ops share.
type layerInputs struct {
	eye    []geom.Vec3
	radius []float64
	depth  []float64
	pano   []*img.Gray // clean ray-cast
	enc    [][]byte
	recon  []*img.Gray // decode of enc
	warp   []*img.Gray // pano of the previous point reprojected here
	band   []*img.Gray // ray-cast horizon band
	delta  [][]byte    // recon against the previous point's recon
	dgrams [][][]byte  // enc sliced into datagrams (FEC group 8)
}

// LayerOps prepares direct calls into each layer on the given points (at
// least two). sizes carries the byte-valued layer metrics. close releases
// the host the transport op runs against.
func (s *SUT) LayerOps(pts []geom.GridPoint) (ops []LayerOp, sizes map[string]float64, closeFn func(), err error) {
	n := len(pts)
	if n < 2 {
		return nil, nil, nil, errors.New("layer pass needs at least two points")
	}
	env, r := s.env, s.env.Renderer
	_, h := s.Resolution()
	bandRows := h / 8
	if bandRows < 16 {
		bandRows = 16
	}
	if bandRows > h {
		bandRows = h
	}
	y0 := (h - bandRows) / 2
	prev := func(i int) int {
		if i == 0 {
			return 1
		}
		return i - 1
	}
	in := layerInputs{}
	for _, pt := range pts {
		pos := s.Grid().Pos(pt)
		leaf := env.Map.LeafAt(pos)
		if leaf == nil {
			return nil, nil, nil, fmt.Errorf("no leaf region at %v", pt)
		}
		eye := env.Game.Scene.EyeAt(pos)
		// The warp's constant-depth shell, as the server derives it from the
		// leaf's cutoff radius.
		depth := math.Min(math.Max(8*leaf.Radius, 20), 200)
		pano := r.Panorama(eye, leaf.Radius, math.Inf(1), nil)
		enc := codec.Encode(pano, env.CRF)
		recon, err := codec.Decode(enc)
		if err != nil {
			return nil, nil, nil, err
		}
		in.eye = append(in.eye, eye)
		in.radius = append(in.radius, leaf.Radius)
		in.depth = append(in.depth, depth)
		in.pano = append(in.pano, pano)
		in.enc = append(in.enc, enc)
		in.recon = append(in.recon, recon)
		in.band = append(in.band, r.PanoramaBand(eye, leaf.Radius, math.Inf(1), nil, y0, y0+bandRows))
		in.dgrams = append(in.dgrams, transport.SliceFrame(nil, transport.FrameMeta{StreamID: 1, FrameSeq: 1, Point: pt}, enc, transport.DefaultFECGroup))
	}
	var intraBytes, deltaBytes, dgramBytes []float64
	for i := range pts {
		j := prev(i)
		warp := r.Reproject(in.pano[j], in.eye[j], in.eye[i], in.depth[i])
		if warp == nil {
			return nil, nil, nil, errors.New("reproject refused its inputs")
		}
		in.warp = append(in.warp, warp)
		d := codec.DeltaEncode(in.recon[i], in.recon[j], env.CRF)
		if d == nil {
			return nil, nil, nil, errors.New("delta encode refused its inputs")
		}
		in.delta = append(in.delta, d)
		intraBytes = append(intraBytes, float64(len(in.enc[i])))
		deltaBytes = append(deltaBytes, float64(len(d)))
		wire := 0
		for _, dg := range in.dgrams[i] {
			wire += len(dg)
		}
		dgramBytes = append(dgramBytes, float64(wire-len(in.enc[i]))/float64(len(in.enc[i])))
	}
	sizes = map[string]float64{
		"codec.intra_bytes":              median(intraBytes),
		"codec.delta_bytes":              median(deltaBytes),
		"transport.dgram_overhead_share": median(dgramBytes),
	}

	// One warm host serves the resident-point ops; one cold server per point
	// serves the miss op, so no miss finds a warp source in the pano cache.
	warm, err := s.StartHost(false, false)
	if err != nil {
		return nil, nil, nil, err
	}
	if err := warm.Prerender(pts, 1); err != nil {
		warm.Close()
		return nil, nil, nil, err
	}
	sess, err := warm.Dial(0)
	if err != nil {
		warm.Close()
		return nil, nil, nil, err
	}
	closeFn = func() { sess.Close(); warm.Close() }
	cold := make([]*server.Server, n)
	for i := range cold {
		cold[i] = server.New(env)
	}

	sc := sched.New(sched.Config{})
	ccfg, _ := cache.Version(3)
	meta := env.MetaFor()
	frameCache := cache.New(ccfg)
	entries := make([]cache.Entry, n)
	reqs := make([]cache.Request, n)
	for i, pt := range pts {
		leaf, sig, thresh := meta(pt)
		pos := s.Grid().Pos(pt)
		entries[i] = cache.Entry{Point: pt, Pos: pos, LeafID: leaf, NearSig: sig, Data: in.enc[i], Size: len(in.enc[i])}
		reqs[i] = cache.Request{Point: pt, Pos: pos, LeafID: leaf, NearSig: sig, DistThresh: thresh}
		frameCache.Insert(entries[i])
	}
	pf := prefetch.New(s.Grid(), meta, cache.New(ccfg), instantSource{data: in.enc[0]}, 0, prefetch.DefaultConfig())
	view := func(g *img.Gray) *img.Gray {
		return &img.Gray{W: g.W, H: bandRows, Pix: g.Pix[y0*g.W : (y0+bandRows)*g.W]}
	}
	offer := func(i, skip int) {
		ra := transport.NewReassembler(transport.ReassemblerConfig{})
		var f *transport.ReassembledFrame
		for k, dg := range in.dgrams[i] {
			if k == skip {
				continue
			}
			if got := ra.Offer(dg, 0); got != nil {
				f = got
			}
		}
		if f == nil {
			panic("bench: reassembler did not deliver a complete frame")
		}
	}

	ops = []LayerOp{
		{"render.panorama_ms", 1, func(i int) {
			r.ReleaseGray(r.Panorama(in.eye[i], in.radius[i], math.Inf(1), nil))
		}},
		{"render.reproject_ms", 1, func(i int) {
			j := prev(i)
			r.ReleaseGray(r.Reproject(in.pano[j], in.eye[j], in.eye[i], in.depth[i]))
		}},
		{"render.band_ms", 1, func(i int) {
			r.PanoramaBand(in.eye[i], in.radius[i], math.Inf(1), nil, y0, y0+bandRows)
		}},
		{"ssim.band_ms", 1, func(i int) { ssim.Mean(in.band[i], view(in.warp[i])) }},
		{"ssim.full_ms", 1, func(i int) { ssim.Mean(in.pano[i], in.warp[i]) }},
		{"codec.encode_ms", 1, func(i int) { codec.Encode(in.pano[i], env.CRF) }},
		{"codec.decode_ms", 1, func(i int) {
			g, _ := codec.Decode(in.enc[i])
			codec.ReleaseGray(g)
		}},
		{"codec.delta_encode_ms", 1, func(i int) { codec.DeltaEncode(in.recon[i], in.recon[prev(i)], env.CRF) }},
		{"codec.delta_decode_ms", 1, func(i int) {
			g, _ := codec.DeltaDecode(in.delta[i], in.recon[prev(i)])
			codec.ReleaseGray(g)
		}},
		{"sched.acquire_release_us", 100, func(int) {
			sc.Acquire(0)
			sc.Release(0)
		}},
		{"server.framefor_hit_us", 100, func(i int) { warm.srv.FrameFor(pts[i]) }},
		{"server.framefor_miss_ms", 1, func(i int) { cold[i].FrameFor(pts[i]) }},
		{"transport.reply_codec_us", 100, func(i int) {
			transport.DecodeFrameReply(transport.EncodeFrameReply(transport.FrameReply{Point: pts[i], Data: in.enc[i]}))
		}},
		{"transport.tcp_hit_rtt_us", 20, func(i int) { sess.Fetch(pts[i]) }},
		{"transport.slice_us", 20, func(i int) {
			transport.SliceFrame(nil, transport.FrameMeta{StreamID: 1, FrameSeq: 1, Point: pts[i]}, in.enc[i], transport.DefaultFECGroup)
		}},
		{"transport.reassemble_us", 20, func(i int) { offer(i, -1) }},
		{"transport.fec_recover_us", 20, func(i int) { offer(i, 0) }},
		{"cache.lookup_us", 100, func(i int) { frameCache.Lookup(reqs[i]) }},
		{"cache.insert_us", 100, func(i int) { frameCache.Insert(entries[i]) }},
		{"prefetch.tick_us", 100, func(i int) {
			pf.Tick(reqs[i].Pos, reqs[i].Pos.Sub(reqs[prev(i)].Pos).Scale(trace.TickHz))
		}},
	}
	return ops, sizes, closeFn, nil
}

// instantSource completes every prefetch at once with a fixed payload, so
// prefetch.Tick is timed planning and inserting, never waiting.
type instantSource struct{ data []byte }

func (s instantSource) Fetch(_ int, _ geom.GridPoint, done func(data []byte, size int, startMs, endMs float64)) {
	done(s.data, len(s.data), 0, 0)
}

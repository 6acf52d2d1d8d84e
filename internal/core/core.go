// Package core assembles the Coterie system out of the substrates: it
// prepares a game environment (scene, offline cutoff map, distance
// thresholds, frame-size model) and runs multiplayer sessions of Coterie
// and of the paper's baselines over the discrete-event testbed, producing
// the metrics the paper's tables and figures report.
//
// The evaluated systems (§3, §7):
//
//   - Mobile: local rendering of everything on the phone.
//   - Thin-client: remote rendering; the server renders, encodes and
//     streams every display frame.
//   - Multi-Furion: the replicated Furion architecture — FI rendered
//     locally, whole-BE panoramas prefetched per grid point.
//   - Multi-Furion+cache: the same plus an exact-match frame cache.
//   - Coterie w/o cache: near BE rendered locally, far-BE panoramas
//     prefetched per grid point (smaller frames, no reuse).
//   - Coterie: the full design — near BE local, far-BE prefetch through
//     the similarity frame cache.
package core

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"coterie/internal/cache"
	"coterie/internal/codec"
	"coterie/internal/cutoff"
	"coterie/internal/device"
	"coterie/internal/games"
	"coterie/internal/geom"
	"coterie/internal/netsim"
	"coterie/internal/obs"
	"coterie/internal/render"
	"coterie/internal/runtime"
	"coterie/internal/world"
)

// SystemKind identifies one of the evaluated system designs. The type and
// its constants live in internal/runtime (the pipeline branches on them);
// core re-exports them so experiment code keeps reading naturally.
type SystemKind = runtime.SystemKind

const (
	Mobile           = runtime.Mobile
	ThinClient       = runtime.ThinClient
	MultiFurion      = runtime.MultiFurion
	MultiFurionCache = runtime.MultiFurionCache
	CoterieNoCache   = runtime.CoterieNoCache
	Coterie          = runtime.Coterie
)

// EnvOptions controls environment preparation.
type EnvOptions struct {
	// RenderCfg sets the panoramic frame resolution of the renderer and of
	// threshold calibration (the frame-size model samples at its own).
	RenderCfg render.Config
	// CutoffParams configures the adaptive cutoff scheme; the zero value
	// means cutoff.DefaultParams. A catalog game at the defaults loads its
	// map from the table the offline step stored (cutoff.Load); any other
	// value goes to cutoff.Compute as set, which rejects an invalid one.
	CutoffParams cutoff.Params
	// ThresholdLeaves is the number of leaves sampled by
	// cutoff.CalibrateThresholds; 0 means cutoff.DefaultSampleLeaves (3).
	// A catalog game at that count, the default resolution and the stored
	// map loads its thresholds from the same table
	// (cutoff.LoadThresholds) instead of calibrating them.
	ThresholdLeaves int
	// SizeSamples is the number of locations the frame-size model samples
	// when Env.Sizes first builds it; 0 means 12.
	SizeSamples int
}

// Env is a prepared game environment shared by sessions: the built game,
// its offline preprocessing output, and the frame-size model, built on
// first use (Sizes).
type Env struct {
	Game     *games.Game
	Device   device.Profile
	Map      *cutoff.Map
	Renderer *render.Renderer
	CRF      int

	// mapStored and threshStored record which offline outputs came from
	// the stored table rather than Compute and calibration.
	mapStored, threshStored bool

	sizeSamples int
	sizerOnce   sync.Once
	sizer       *FrameSizer
	sizerErr    error

	meta      sync.Map // geom.GridPoint → pointMeta (Meta's memo)
	metaCount atomic.Int64
	queries   sync.Pool // *world.Query for Meta's near-set queries
}

// pointMeta is one memoized Meta result.
type pointMeta struct {
	leaf   int
	sig    uint64
	thresh float64
}

// metaCap bounds Meta's memo: past it, points are computed but not kept.
const metaCap = 1 << 20

// PrepareEnv builds a game and assembles the offline preprocessing's
// output: the adaptive cutoff map and the cache distance thresholds. This
// corresponds to the paper's per-app installation step (§4.3, §6). Both
// come from the table internal/cutoff stores for the game when it was
// computed from exactly this scene and these options, and are computed
// (cutoff.Compute, cutoff.CalibrateThresholds) otherwise; either way they
// are the same bits. The frame-size model waits for its first caller
// (Sizes).
func PrepareEnv(spec games.Spec, opts EnvOptions) (*Env, error) {
	if opts.CutoffParams == (cutoff.Params{}) {
		opts.CutoffParams = cutoff.DefaultParams()
	}
	if opts.ThresholdLeaves == 0 {
		opts.ThresholdLeaves = cutoff.DefaultSampleLeaves
	}
	if opts.SizeSamples == 0 {
		opts.SizeSamples = 12
	}
	dev := device.Pixel2()
	g := games.Build(spec)
	m, err := cutoff.Load(spec.Name, g.Scene, dev.NearBERenderMs, opts.CutoffParams)
	if err != nil {
		return nil, fmt.Errorf("core: stored cutoff map: %w", err)
	}
	mapStored := m != nil
	if !mapStored {
		if m, err = cutoff.Compute(g.Scene, dev.NearBERenderMs, opts.CutoffParams); err != nil {
			return nil, fmt.Errorf("core: cutoff scheme failed: %w", err)
		}
	}
	r := render.New(g.Scene, opts.RenderCfg)
	tc := cutoff.DefaultThresholdConfig()
	threshStored, err := cutoff.LoadThresholds(spec.Name, m, r.Cfg, opts.ThresholdLeaves, tc)
	if err != nil {
		return nil, fmt.Errorf("core: stored thresholds: %w", err)
	}
	if !threshStored {
		if err := cutoff.CalibrateThresholds(m, r, opts.ThresholdLeaves, tc); err != nil {
			return nil, fmt.Errorf("core: threshold calibration failed: %w", err)
		}
	}
	return &Env{
		Game:         g,
		Device:       dev,
		Map:          m,
		Renderer:     r,
		CRF:          codec.DefaultCRF,
		mapStored:    mapStored,
		threshStored: threshStored,
		sizeSamples:  opts.SizeSamples,
	}, nil
}

// Sizes returns the frame-size model: NewFrameSizer at the environment's
// SizeSamples, built on the first call, which returns its error too. Only
// the simulated sessions read it. Safe for concurrent callers.
func (e *Env) Sizes() (*FrameSizer, error) {
	e.sizerOnce.Do(func() { e.sizer, e.sizerErr = NewFrameSizer(e.Game, e.Map, e.CRF, e.sizeSamples) })
	return e.sizer, e.sizerErr
}

// Meta returns the §5.3 lookup keys of a grid point: its leaf, the
// signature of its near-BE object set under the leaf's cutoff radius, and
// the leaf's distance threshold; -1, 0, 0 outside the map. Safe for
// concurrent callers, it memoizes up to metaCap points per Env, so each
// point's near-set walk runs once whoever asks.
func (e *Env) Meta(pt geom.GridPoint) (leaf int, sig uint64, thresh float64) {
	if m, ok := e.meta.Load(pt); ok {
		m := m.(pointMeta)
		return m.leaf, m.sig, m.thresh
	}
	scene := e.Game.Scene
	pos := scene.Grid.Pos(pt)
	region := e.Map.LeafAt(pos)
	if region == nil {
		return -1, 0, 0
	}
	q, _ := e.queries.Get().(*world.Query)
	if q == nil {
		q = scene.NewQuery()
	}
	m := pointMeta{leaf: region.ID, sig: scene.NearSetSignature(q, pos, region.Radius), thresh: region.DistThresh}
	e.queries.Put(q)
	if e.metaCount.Load() < metaCap {
		if _, loaded := e.meta.LoadOrStore(pt, m); !loaded {
			e.metaCount.Add(1)
		}
	}
	return m.leaf, m.sig, m.thresh
}

// MetaFor returns Meta as a function value. Only the benchmark harness
// still calls it.
func (e *Env) MetaFor() func(pt geom.GridPoint) (int, uint64, float64) { return e.Meta }

// display4KPixels is the panoramic frame resolution the paper prefetches
// (3840x2160); sampled sizes are scaled to it.
const display4KPixels = 3840 * 2160

// sizeScaleExponent converts encoded bytes measured at the experiment
// resolution to the 4K operating point: compressed video rate grows
// sublinearly with pixel count (roughly rate ~ pixels^0.9 at constant
// quality), because higher resolutions add proportionally more smooth
// area than edges.
const sizeScaleExponent = 0.9

// FrameSizer models encoded frame sizes at 4K from real renders at the
// experiment resolution: it renders sample panoramas, encodes them with
// the codec, and scales byte counts to 4K pixel counts. Per-request sizes
// get a small deterministic jitter so transfers are not artificially
// uniform.
type FrameSizer struct {
	// WholeBE is the mean encoded whole-BE panorama size in bytes (what
	// Multi-Furion transfers per grid point).
	WholeBE int
	// FarBE is the mean encoded far-BE panorama size (what Coterie
	// transfers on a cache miss).
	FarBE int
	// Thin is the mean encoded full-detail display frame (what the
	// thin-client streams every frame).
	Thin int
}

// sizerConfig is the fixed resolution the size model samples at. Fixing
// it decouples the modelled 4K byte counts from the experiment render
// resolution (compressed bits-per-pixel varies with resolution, so
// sampling at the experiment resolution would make transfer sizes depend
// on an unrelated knob).
var sizerConfig = render.Config{W: 192, H: 96}

// NewFrameSizer samples frame sizes across the world at the fixed sizer
// resolution.
func NewFrameSizer(g *games.Game, m *cutoff.Map, crf, samples int) (*FrameSizer, error) {
	if samples < 1 {
		return nil, fmt.Errorf("core: need at least one size sample")
	}
	r := render.New(g.Scene, sizerConfig)
	var whole, far, thin float64
	count := 0
	// Deterministic stratified sample positions around the spawn region
	// and across the world.
	for i := 0; i < samples; i++ {
		f := (float64(i) + 0.5) / float64(samples)
		pos := geom.V2(
			g.Scene.Bounds.MinX+f*g.Scene.Bounds.Width(),
			g.Scene.Bounds.MinZ+(1-f)*g.Scene.Bounds.Depth(),
		)
		if i%3 == 0 { // bias a third of samples near the playable area
			pos = g.Scene.Bounds.ClampPoint(geom.V2(
				g.Spawn.X+(f-0.5)*20,
				g.Spawn.Z+(0.5-f)*20,
			))
		}
		leaf := m.LeafAt(pos)
		if leaf == nil {
			continue
		}
		eye := g.Scene.EyeAt(pos)
		wholePano := r.Panorama(eye, 0, math.Inf(1), nil)
		farPano := r.Panorama(eye, leaf.Radius, math.Inf(1), nil)
		scale := math.Pow(float64(display4KPixels)/float64(wholePano.W*wholePano.H), sizeScaleExponent)
		whole += float64(len(codec.Encode(wholePano, crf))) * scale
		far += float64(len(codec.Encode(farPano, crf))) * scale

		fov, err := render.FoVCrop(wholePano, 0, math.Pi/2, math.Pi/2)
		if err != nil {
			return nil, err
		}
		fovScale := math.Pow(float64(display4KPixels)/float64(fov.W*fov.H), sizeScaleExponent)
		thin += float64(len(codec.Encode(fov, crf))) * fovScale
		count++
	}
	if count == 0 {
		return nil, fmt.Errorf("core: no usable size samples")
	}
	return &FrameSizer{
		WholeBE: int(whole / float64(count)),
		FarBE:   int(far / float64(count)),
		Thin:    int(thin / float64(count)),
	}, nil
}

// SizeFor returns the modelled transfer size for a system's BE frame at a
// grid point, with deterministic per-point jitter.
func (fs *FrameSizer) SizeFor(kind SystemKind, pt geom.GridPoint) int {
	var base int
	switch {
	case kind == ThinClient:
		base = fs.Thin
	case kind.SplitsNearFar():
		base = fs.FarBE
	default:
		base = fs.WholeBE
	}
	return jitterSize(base, pt)
}

// jitterSize applies a +-8% deterministic hash jitter.
func jitterSize(base int, pt geom.GridPoint) int {
	h := uint64(pt.I)*0x9E3779B97F4A7C15 ^ uint64(pt.J)*0xBF58476D1CE4E5B9
	h ^= h >> 33
	h *= 0xD6E8FEB86659FD93
	h ^= h >> 29
	f := 0.92 + 0.16*float64(h%1024)/1023
	return int(float64(base) * f)
}

// simSource adapts the WiFi medium to the runtime.FrameSource (and
// prefetch.Source) interface with a small server turnaround time (the
// Coterie server serves pre-rendered, pre-encoded frames, §5.1). It also
// implements runtime.StageReporter: the testbed emits the same server-side
// stage decomposition the live backend carries over the wire, so sim and
// live traces decompose identically (span schema v2).
type simSource struct {
	sim   *netsim.Sim
	wifi  *netsim.WiFi
	sizer *FrameSizer
	kind  SystemKind
	// serverMs is server turnaround counted toward the reported transfer
	// latency (the pre-rendered frame lookup); it is attributed to the
	// queue stage of the trace decomposition.
	serverMs float64
	// renderMs and encodeMs are server work preceding the transfer without
	// counting toward its latency (the thin client's on-demand render and
	// encode).
	renderMs float64
	encodeMs float64
	// latencies accumulates per-transfer network delays for reporting.
	latencies *runtime.LatencyAcc
	// onDeliver, when set, observes every completed fetch (used by the
	// overhearing extension to populate other players' caches, §4.6).
	onDeliver func(pt geom.GridPoint, size int)
	// last is the stage decomposition of the most recent completed fetch
	// (only touched on the simulator goroutine).
	last obs.FetchStages
}

// Fetch implements runtime.FrameSource over the simulated medium.
func (s *simSource) Fetch(player int, pt geom.GridPoint, done func([]byte, int, float64, float64)) {
	size := s.sizer.SizeFor(s.kind, pt)
	issued := s.sim.Now()
	s.sim.After(s.renderMs+s.encodeMs+s.serverMs, func() {
		s.wifi.Transfer(player, size, func(start, end float64) {
			s.latencies.Add(end - start + s.serverMs)
			rtt := end - issued
			s.last = obs.FetchStages{
				NetMs:    rtt - s.serverMs - s.renderMs - s.encodeMs,
				QueueMs:  s.serverMs,
				RenderMs: s.renderMs,
				EncodeMs: s.encodeMs,
				Valid:    true,
			}
			if s.onDeliver != nil {
				s.onDeliver(pt, size)
			}
			done(nil, size, start, end)
		})
	})
}

// LastFetchStages implements runtime.StageReporter.
func (s *simSource) LastFetchStages() obs.FetchStages { return s.last }

// cacheConfigFor returns the cache configuration a system uses.
func cacheConfigFor(kind SystemKind, policy cache.Policy, capacity int64) cache.Config {
	switch kind {
	case MultiFurionCache:
		cfg, _ := cache.Version(1) // exact matching only
		cfg.Policy = policy
		cfg.CapacityBytes = capacity
		return cfg
	case Coterie:
		cfg, _ := cache.Version(3) // intra-player similar frames
		cfg.Policy = policy
		cfg.CapacityBytes = capacity
		return cfg
	default:
		// Multi-Furion and Coterie-no-cache hold only recently prefetched
		// frames (a small staging buffer, not a reuse cache).
		cfg, _ := cache.Version(1)
		cfg.Policy = cache.LRU
		cfg.CapacityBytes = 64 * 1024 * 1024 // ~100 whole-BE frames
		return cfg
	}
}

package eval

import (
	"errors"
	"math"
	"math/rand"

	"coterie/internal/codec"
	"coterie/internal/core"
	"coterie/internal/cutoff"
	"coterie/internal/geom"
	"coterie/internal/par"
	"coterie/internal/render"
	"coterie/internal/ssim"
	"coterie/internal/trace"
)

// visualQuality renders real frames through each system's pipeline and
// scores them against a direct local render (the paper measures SSIM
// against frames generated directly on the client, §7.1):
//
//   - Thin-client: the whole frame passes through the encoder/decoder.
//   - Multi-Furion: the whole BE passes through the codec; only the small
//     FI overlay is rendered locally, so its quality tracks Thin-client's.
//   - Coterie: only the far BE passes through the codec, and the far frame
//     may additionally be a *reused* similar frame rendered from a nearby
//     viewpoint (sampled within the leaf's distance threshold); FI and
//     near BE are locally rendered and lossless.
//
// Coterie scores highest because the codec (and reuse distortion) touches
// the smallest part of the frame — the paper's explanation for Table 7.
func visualQuality(env *core.Env, opts Options) (map[core.SystemKind]float64, error) {
	r := render.New(env.Game.Scene, opts.renderConfig())
	rng := rand.New(rand.NewSource(opts.Seed + 70))
	samples := 8
	if opts.Quick {
		samples = 3
	}
	tr := trace.Generate(env.Game, 60, opts.Seed+71)

	// Enumerate the sampled trace positions sequentially — the leaf skip is
	// trace-determined and the cache-displacement draw must follow the
	// original rng order — then fan the render/codec/SSIM work out.
	type sample struct {
		pos   geom.Vec2
		yaw   float64
		leaf  *cutoff.Region
		dAway float64
	}
	var items []sample
	stride := tr.Len() / (samples + 1)
	if stride < 1 {
		stride = 1
	}
	for i := stride; i < tr.Len() && len(items) < samples; i += stride {
		pos := tr.Pos[i]
		leaf := env.Map.LeafAt(pos)
		if leaf == nil {
			continue
		}
		items = append(items, sample{
			pos:   pos,
			yaw:   tr.YawAt(i),
			leaf:  leaf,
			dAway: rng.Float64() * leaf.DistThresh,
		})
	}

	full := make([]float64, len(items))
	coterie := make([]float64, len(items))
	err := par.ForErr(len(items), func(i int) error {
		pos, yaw, leaf := items[i].pos, items[i].yaw, items[i].leaf
		eye := env.Game.Scene.EyeAt(pos)
		truthPano := r.GroundTruth(eye, nil)
		// The paper scores the display frames (the cropped field of view
		// at the phone's resolution), not the panoramas.
		truth, err := render.FoVCrop(truthPano, yaw, math.Pi/2, math.Pi/2)
		if err != nil {
			return err
		}

		// Thin-client and Multi-Furion: the displayed content passes
		// through the codec in full (Multi-Furion's locally rendered FI
		// overlay is a negligible fraction of the frame).
		decodedPano, err := codec.Decode(codec.Encode(truthPano, env.CRF))
		if err != nil {
			return err
		}
		decoded, err := render.FoVCrop(decodedPano, yaw, math.Pi/2, math.Pi/2)
		if err != nil {
			return err
		}
		sFull, err := ssim.Mean(truth, decoded)
		if err != nil {
			return err
		}

		// Coterie: near BE + FI locally rendered and lossless; far BE
		// decoded from a similar cached frame rendered dAway from here.
		src := geom.V2(pos.X+items[i].dAway, pos.Z)
		far := r.Panorama(env.Game.Scene.EyeAt(src), leaf.Radius, math.Inf(1), nil)
		farDec, err := codec.Decode(codec.Encode(far, env.CRF))
		if err != nil {
			return err
		}
		near := r.NearFrame(eye, leaf.Radius, nil)
		mergedPano := render.Merge(near, farDec)
		merged, err := render.FoVCrop(mergedPano, yaw, math.Pi/2, math.Pi/2)
		if err != nil {
			return err
		}
		sCoterie, err := ssim.Mean(truth, merged)
		if err != nil {
			return err
		}
		full[i] = sFull
		coterie[i] = sCoterie
		return nil
	})
	if err != nil {
		return nil, err
	}
	if len(items) == 0 {
		return nil, errors.New("eval: no usable quality samples")
	}
	sums := map[core.SystemKind]float64{}
	for i := range items {
		sums[core.ThinClient] += full[i]
		sums[core.MultiFurion] += full[i]
		sums[core.Coterie] += coterie[i]
	}
	out := map[core.SystemKind]float64{}
	for k, v := range sums {
		out[k] = v / float64(len(items))
	}
	return out, nil
}

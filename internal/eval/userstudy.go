package eval

import (
	"io"
	"math"

	"coterie/internal/render"
	"coterie/internal/ssim"
	"coterie/internal/trace"
)

// Table10Result is the modelled user-study score distribution (Table 10).
type Table10Result struct {
	// Percent[s-1] is the fraction of transitions scored s in 1..5.
	Percent [5]float64
	// MeanScore is the average opinion score.
	MeanScore float64
	// Events is the number of frame-switch events scored.
	Events int
}

// paperTable10 is the published distribution (score 1..5).
var paperTable10 = [5]float64{0, 0, 0.055, 0.292, 0.653}

// Table10 models the IRB user study: participants watched 20 s replays
// under Multi-Furion and Coterie and graded the visible difference from 1
// (very annoying) to 5 (imperceptible). The only artefact Coterie adds is
// the discontinuity when the displayed far-BE frame switches from one
// cached source frame to another; we substitute the human grader with a
// standard objective mapping from the SSIM of the frame pair across each
// switch to the 5-point impairment scale (higher similarity = less
// perceptible). The mapping is documented in DESIGN.md; the paper-level
// claim to preserve is that the vast majority of transitions are graded 4
// or 5.
func (l *Lab) Table10() (*Table10Result, error) {
	res := &Table10Result{}
	perGame := 10
	if l.Opts.Quick {
		perGame = 4
	}
	for _, name := range headlineNames {
		env, err := l.Env(name)
		if err != nil {
			return nil, err
		}
		r := render.New(env.Game.Scene, l.Opts.renderConfig())
		tr := trace.Generate(env.Game, 20, l.Opts.Seed+10)
		grid := env.Game.Scene.Grid

		// Walk the replay; at each point where the cache would switch to
		// a new far-BE source frame (leaving the distance threshold or
		// the near set changing), score the transition: SSIM between the
		// far frame rendered at the old source and at the new one, both
		// as seen from the current viewpoint's leaf radius.
		lastSrc := tr.Pos[0]
		lastPt := grid.Snap(tr.Pos[0])
		lastLeaf, lastSig, _ := env.Meta(lastPt)
		scored := 0
		for i := 1; i < tr.Len() && scored < perGame; i++ {
			pt := grid.Snap(tr.Pos[i])
			if pt == lastPt {
				continue
			}
			lastPt = pt
			leaf, sig, thresh := env.Meta(pt)
			switched := leaf != lastLeaf || sig != lastSig || tr.Pos[i].Dist(lastSrc) > thresh
			lastLeaf, lastSig = leaf, sig
			if !switched {
				continue
			}
			radius := env.Map.RadiusAt(tr.Pos[i])
			if radius <= 0 {
				continue
			}
			oldFrame := r.Panorama(env.Game.Scene.EyeAt(lastSrc), radius, math.Inf(1), nil)
			newFrame := r.Panorama(env.Game.Scene.EyeAt(tr.Pos[i]), radius, math.Inf(1), nil)
			lastSrc = tr.Pos[i]
			s, err := ssim.Mean(oldFrame, newFrame)
			if err != nil {
				continue
			}
			res.Percent[scoreFor(s)-1]++
			res.Events++
			scored++
		}
	}
	if res.Events == 0 {
		return res, nil
	}
	for i := range res.Percent {
		res.Percent[i] /= float64(res.Events)
		res.MeanScore += float64(i+1) * res.Percent[i]
	}
	return res, nil
}

// scoreFor maps the SSIM across a frame switch to the 5-point impairment
// scale: an imperceptible switch keeps SSIM near 1; the paper's
// good-quality bar (0.9) anchors "slightly annoying".
func scoreFor(s float64) int {
	switch {
	case s >= 0.97:
		return 5 // imperceptible
	case s >= 0.93:
		return 4 // perceptible but not annoying
	case s >= ssim.GoodThreshold:
		return 3 // slightly annoying
	case s >= 0.80:
		return 2 // annoying
	default:
		return 1 // very annoying
	}
}

// PrintTable10 renders the distribution.
func PrintTable10(w io.Writer, r *Table10Result) {
	fprintf(w, "Table 10: modelled user-study score distribution over %d frame switches\n", r.Events)
	fprintf(w, "%-10s %8s %8s %8s %8s %8s\n", "", "1", "2", "3", "4", "5")
	fprintf(w, "%-10s %7.1f%% %7.1f%% %7.1f%% %7.1f%% %7.1f%%\n", "measured",
		r.Percent[0]*100, r.Percent[1]*100, r.Percent[2]*100, r.Percent[3]*100, r.Percent[4]*100)
	fprintf(w, "%-10s %7.1f%% %7.1f%% %7.1f%% %7.1f%% %7.1f%%\n", "paper",
		paperTable10[0]*100, paperTable10[1]*100, paperTable10[2]*100, paperTable10[3]*100, paperTable10[4]*100)
	fprintf(w, "mean score %.2f (paper 4.5-4.75)\n", r.MeanScore)
}

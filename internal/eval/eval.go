// Package eval regenerates every table and figure of the paper's
// evaluation from the reimplemented system: the experiment harness behind
// cmd/benchtab and the benchmarks in the repository root. Each experiment
// returns typed rows, carries the paper's published values for comparison,
// and can print itself.
package eval

import (
	"fmt"
	"io"
	"sync"

	"coterie/internal/core"
	"coterie/internal/games"
	"coterie/internal/par"
	"coterie/internal/render"
)

// Options scales the experiments.
type Options struct {
	// Quick trades precision for speed (shorter sessions, fewer samples);
	// used by tests and -quick runs.
	Quick bool
	// RenderW/RenderH set the panorama resolution for experiments that
	// render frames; zero means 160x80 (quick) or 256x128. Every
	// environment loads the same map and thresholds whatever these are.
	RenderW, RenderH int
	// Seed fixes all sampled randomness.
	Seed int64
}

// DefaultOptions returns the paper-grade configuration.
func DefaultOptions() Options { return Options{Seed: 1} }

func (o Options) renderConfig() render.Config {
	w, h := o.RenderW, o.RenderH
	if w == 0 || h == 0 {
		if o.Quick {
			w, h = 160, 80
		} else {
			w, h = 256, 128
		}
	}
	return render.Config{W: w, H: h}
}

// sessionSeconds returns the session length for testbed experiments. The
// paper runs 10 minutes; the simulated testbed converges much faster.
func (o Options) sessionSeconds() float64 {
	if o.Quick {
		return 8
	}
	return 45
}

// Lab caches prepared environments per game so a benchtab run prepares
// each world once. Env is safe for concurrent use: each game's environment
// is built exactly once even when several experiment workers ask for it at
// the same time, and distinct games build concurrently.
type Lab struct {
	Opts Options

	mu   sync.Mutex
	envs map[string]*envSlot
}

// envSlot decouples the cache map's lock from the (expensive) environment
// build, so preparing one game never blocks another.
type envSlot struct {
	once sync.Once
	env  *core.Env
	err  error
}

// NewLab creates an experiment lab.
func NewLab(opts Options) *Lab {
	return &Lab{Opts: opts, envs: make(map[string]*envSlot)}
}

// Env returns the prepared environment for a game, building it on first
// use.
func (l *Lab) Env(name string) (*core.Env, error) {
	l.mu.Lock()
	s, ok := l.envs[name]
	if !ok {
		s = &envSlot{}
		l.envs[name] = s
	}
	l.mu.Unlock()
	s.once.Do(func() { s.env, s.err = l.buildEnv(name) })
	return s.env, s.err
}

func (l *Lab) buildEnv(name string) (*core.Env, error) {
	spec, err := games.ByName(name)
	if err != nil {
		return nil, err
	}
	opts := core.EnvOptions{RenderCfg: l.Opts.renderConfig()}
	if l.Opts.Quick {
		opts.SizeSamples = 6
	}
	env, err := core.PrepareEnv(spec, opts)
	if err != nil {
		return nil, fmt.Errorf("eval: preparing %s: %w", name, err)
	}
	return env, nil
}

// PrepareEnvs builds the environments for the named games across the lab's
// workers. Generators call it before fanning out so the parallel units find
// every environment already cached.
func (l *Lab) PrepareEnvs(names []string) error {
	return par.ForErr(len(names), func(i int) error {
		_, err := l.Env(names[i])
		return err
	})
}

// Game builds (and caches via Env) the game for similarity experiments
// that need no cutoff map.
func (l *Lab) Game(name string) (*games.Game, error) {
	env, err := l.Env(name)
	if err != nil {
		return nil, err
	}
	return env.Game, nil
}

// adjacentStep returns the "adjacent grid point" displacement used by the
// similarity experiments, scaled from the paper's 4K panoramas to the
// experiment resolution: a viewpoint shift that moves near geometry by k
// pixels at 3840-wide frames moves it by k*W/3840 pixels at width W, so
// the same SSIM behaviour needs the displacement scaled by 3840/W. The
// absolute SSIM-versus-metres curve therefore shifts; the paper-level
// contrasts (whole vs far BE, outdoor vs indoor) are preserved.
func (o Options) adjacentStep(gridStep float64) float64 {
	return gridStep * 3840 / float64(o.renderConfig().W)
}

// headlineNames are the three testbed games (§7).
var headlineNames = []string{"viking", "cts", "racing"}

// allGameNames are the nine study apps in the paper's order.
func allGameNames() []string {
	names := make([]string, 0, 9)
	for _, s := range games.Catalog() {
		names = append(names, s.Name)
	}
	return names
}

// cdfSummary reduces a sample set to the fraction above a threshold plus
// quartiles — enough to compare the shape of a CDF against the paper.
type cdfSummary struct {
	N             int
	FracAbove     float64 // fraction of samples above the quality threshold
	P25, P50, P75 float64
}

func summarize(samples []float64, threshold float64) cdfSummary {
	if len(samples) == 0 {
		return cdfSummary{}
	}
	sorted := append([]float64(nil), samples...)
	insertionSort(sorted)
	above := 0
	for _, s := range sorted {
		if s > threshold {
			above++
		}
	}
	q := func(p float64) float64 { return sorted[int(p*float64(len(sorted)-1))] }
	return cdfSummary{
		N:         len(sorted),
		FracAbove: float64(above) / float64(len(sorted)),
		P25:       q(0.25),
		P50:       q(0.50),
		P75:       q(0.75),
	}
}

func insertionSort(a []float64) {
	for i := 1; i < len(a); i++ {
		for j := i; j > 0 && a[j] < a[j-1]; j-- {
			a[j], a[j-1] = a[j-1], a[j]
		}
	}
}

func fprintf(w io.Writer, format string, args ...interface{}) {
	if w != nil {
		fmt.Fprintf(w, format, args...)
	}
}

package render

import (
	"hash/fnv"
	"math"
	"math/rand"
	"sync"
	"testing"

	"coterie/internal/games"
	"coterie/internal/geom"
	"coterie/internal/world"
)

// frameDigests pins every frame kind of three games: FNV-64a over the
// pixels (and near masks) framesDigest renders, computed at the commit
// before ISSUE 22 made the cast output-sensitive. A renderer change that
// moves one of them changed frames on the wire — every store, every delta
// chain and every table of the paper reproduction with it. (Computed on
// amd64; a port whose compiler fuses multiply-adds may round differently.)
var frameDigests = map[string]uint64{
	"viking": 0xf0a9a5d496d8fee9,
	"pool":   0x9a4012f647391122,
	"racing": 0xf55ff16be07d27d3,
}

// framesDigest renders, from 12 eyes scattered over the map, the far BE at
// three fixed cutoffs (not cutoff.Compute: no map build), the whole BE, the
// near BE with its mask, a horizon band, a colour frame and a far BE with
// two avatars (one inside the window, one nearer than it).
func framesDigest(g *games.Game) uint64 {
	return rendererDigest(New(g.Scene, Config{W: 256, H: 128}), g)
}

// rendererDigest is framesDigest's render sequence on a given renderer.
func rendererDigest(r *Renderer, g *games.Game) uint64 {
	h := fnv.New64a()
	maskBytes := make([]byte, 256*128)
	rng := rand.New(rand.NewSource(22))
	bd := g.Scene.Bounds
	inf := math.Inf(1)
	for i := 0; i < 12; i++ {
		p := geom.V2(bd.MinX+rng.Float64()*bd.Width(), bd.MinZ+rng.Float64()*bd.Depth())
		eye := g.Scene.EyeAt(p)
		for _, tMin := range []float64{3, 12, 25, 0} {
			f := r.Panorama(eye, tMin, inf, nil)
			h.Write(f.Pix)
			r.ReleaseGray(f)
		}
		near := r.NearFrame(eye, 12, nil)
		h.Write(near.Gray.Pix)
		for k, m := range near.Mask {
			maskBytes[k] = 0
			if m {
				maskBytes[k] = 1
			}
		}
		h.Write(maskBytes)
		r.ReleaseFrame(near)
		h.Write(r.PanoramaBand(eye, 12, inf, nil, 50, 78).Pix)
		h.Write(r.PanoramaRGB(eye, 3, inf, nil).Pix)
		dyn := []world.Object{
			g.Avatar(geom.V2(p.X+9.5, p.Z-6.2), 1),
			g.Avatar(geom.V2(p.X-2.1, p.Z+0.8), 2),
		}
		f := r.Panorama(eye, 8, inf, dyn)
		h.Write(f.Pix)
		r.ReleaseGray(f)
	}
	return h.Sum64()
}

func TestFramesUnchanged(t *testing.T) {
	for name, want := range frameDigests {
		t.Run(name, func(t *testing.T) {
			g, err := games.BuildByName(name)
			if err != nil {
				t.Fatal(err)
			}
			for _, workers := range []int{1, 2} {
				setProcs(t, workers)
				if got := framesDigest(g); got != want {
					t.Errorf("%s, %d workers: frame digest %#016x, pinned %#016x", name, workers, got, want)
				}
			}
		})
	}
}

// TestFramesUnchangedUnderConcurrentRenders renders the pinned sequence
// from two goroutines through one renderer at once on a two-worker pool,
// so calls share the pool and its helpers join, leave and skip calls on
// whatever schedule the two produce: bands write disjoint columns, so
// every frame must still match the pin.
func TestFramesUnchangedUnderConcurrentRenders(t *testing.T) {
	setProcs(t, 2)
	for name, want := range frameDigests {
		t.Run(name, func(t *testing.T) {
			g, err := games.BuildByName(name)
			if err != nil {
				t.Fatal(err)
			}
			r := New(g.Scene, Config{W: 256, H: 128})
			var got [2]uint64
			var wg sync.WaitGroup
			for i := range got {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					got[i] = rendererDigest(r, g)
				}(i)
			}
			wg.Wait()
			for i, d := range got {
				if d != want {
					t.Errorf("%s, renderer goroutine %d: frame digest %#016x, pinned %#016x", name, i, d, want)
				}
			}
		})
	}
}

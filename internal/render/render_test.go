package render

import (
	"math"
	"math/rand"
	"testing"

	"coterie/internal/geom"
	"coterie/internal/img"
	"coterie/internal/ssim"
	"coterie/internal/world"
)

// denseScene builds a world with objects scattered at all ranges from the
// test viewpoints, so near objects exist to produce the near-object effect.
func denseScene(seed int64, n int) *world.Scene {
	rng := rand.New(rand.NewSource(seed))
	objs := make([]world.Object, 0, n)
	for i := 0; i < n; i++ {
		c := geom.V3(rng.Float64()*120, 0, rng.Float64()*120)
		if i%4 == 0 {
			h := 1.5 + rng.Float64()*4
			objs = append(objs, world.Object{
				ID: i, Kind: world.KindBox,
				Center:    geom.V3(c.X, h/2, c.Z),
				Half:      geom.V3(0.8+rng.Float64()*2, h/2, 0.8+rng.Float64()*2),
				Triangles: 500 + rng.Intn(2000),
				Shade:     rng.Float64(),
				Pattern:   uint8(rng.Intn(8)),
			})
		} else {
			r := 0.3 + rng.Float64()*1.5
			objs = append(objs, world.Object{
				ID: i, Kind: world.KindSphere,
				Center:    geom.V3(c.X, r*0.8, c.Z),
				Radius:    r,
				Triangles: 200 + rng.Intn(1000),
				Shade:     rng.Float64(),
				Pattern:   uint8(rng.Intn(8)),
			})
		}
	}
	return world.New("dense", geom.NewRect(120, 120), 0.25, objs, 2)
}

func TestPanoramaDimensions(t *testing.T) {
	s := denseScene(1, 50)
	r := New(s, Config{W: 64, H: 32})
	g := r.Panorama(s.EyeAt(geom.V2(60, 60)), 0, math.Inf(1), nil)
	if g.W != 64 || g.H != 32 {
		t.Fatalf("dims %dx%d", g.W, g.H)
	}
}

func TestBareLiteralRendererMatchesNew(t *testing.T) {
	// The projection tables are built on first use, so a renderer written
	// as a bare literal renders the frames one from New does, masks and
	// colour included.
	s := denseScene(31, 120)
	cfg := Config{W: 96, H: 48}
	built := New(s, cfg)
	bare := &Renderer{Scene: s, Cfg: cfg}
	eye := s.EyeAt(geom.V2(55, 62))
	a := built.Panorama(eye, 0, math.Inf(1), nil)
	b := bare.Panorama(eye, 0, math.Inf(1), nil)
	for i := range a.Pix {
		if a.Pix[i] != b.Pix[i] {
			t.Fatalf("pixel %d differs: %d vs %d", i, a.Pix[i], b.Pix[i])
		}
	}
	fa := built.NearFrame(eye, 8, nil)
	fb := bare.NearFrame(eye, 8, nil)
	for i := range fa.Mask {
		if fa.Mask[i] != fb.Mask[i] || fa.Gray.Pix[i] != fb.Gray.Pix[i] {
			t.Fatalf("near frame differs at %d", i)
		}
	}
	ra := built.PanoramaRGB(eye, 0, math.Inf(1), nil)
	rb := bare.PanoramaRGB(eye, 0, math.Inf(1), nil)
	for i := range ra.Pix {
		if ra.Pix[i] != rb.Pix[i] {
			t.Fatalf("RGB differs at %d", i)
		}
	}
	if w := bare.Reproject(b, eye, eye, 20); w == nil || w.Pix[0] != b.Pix[0] {
		t.Fatal("bare-literal renderer cannot reproject")
	}
}

func TestPanoramaDeterministic(t *testing.T) {
	s := denseScene(2, 80)
	r := New(s, Config{W: 96, H: 48})
	eye := s.EyeAt(geom.V2(60, 60))
	a := r.Panorama(eye, 0, math.Inf(1), nil)
	b := r.Panorama(eye, 0, math.Inf(1), nil)
	for i := range a.Pix {
		if a.Pix[i] != b.Pix[i] {
			t.Fatalf("non-deterministic render at pixel %d", i)
		}
	}
	// Independent of worker count.
	setProcs(t, 1)
	c := r.Panorama(eye, 0, math.Inf(1), nil)
	for i := range a.Pix {
		if a.Pix[i] != c.Pix[i] {
			t.Fatalf("parallelism changed output at pixel %d", i)
		}
	}
}

func TestSkyIdenticalAcrossViewpoints(t *testing.T) {
	// An empty world renders only ground and sky; the sky half must be
	// identical from any viewpoint (it is infinitely far away).
	s := world.New("empty", geom.NewRect(100, 100), 1, nil, 0)
	r := New(s, Config{W: 64, H: 32})
	a := r.Panorama(s.EyeAt(geom.V2(20, 20)), 0, math.Inf(1), nil)
	b := r.Panorama(s.EyeAt(geom.V2(80, 70)), 0, math.Inf(1), nil)
	for y := 0; y < 12; y++ { // rows well above the horizon
		for x := 0; x < 64; x++ {
			if a.At(x, y) != b.At(x, y) {
				t.Fatalf("sky differs at (%d,%d)", x, y)
			}
		}
	}
}

func TestNearObjectEffect(t *testing.T) {
	// The paper's central measurement (Figs 1, 3): whole-BE frames from
	// adjacent grid points are dissimilar because of near objects, while
	// far-BE frames (near geometry removed by the cutoff) are highly
	// similar.
	s := denseScene(3, 260)
	r := New(s, DefaultConfig())
	// Pick a viewpoint with objects nearby.
	p1 := geom.V2(60, 60)
	p2 := geom.V2(60.25, 60) // adjacent grid point, 25 cm away
	eye1, eye2 := s.EyeAt(p1), s.EyeAt(p2)

	whole1 := r.Panorama(eye1, 0, math.Inf(1), nil)
	whole2 := r.Panorama(eye2, 0, math.Inf(1), nil)
	sWhole, err := ssim.Mean(whole1, whole2)
	if err != nil {
		t.Fatal(err)
	}

	const cutoff = 8.0
	far1 := r.Panorama(eye1, cutoff, math.Inf(1), nil)
	far2 := r.Panorama(eye2, cutoff, math.Inf(1), nil)
	sFar, err := ssim.Mean(far1, far2)
	if err != nil {
		t.Fatal(err)
	}

	if sFar <= sWhole {
		t.Fatalf("removing near geometry should raise similarity: whole %.3f, far %.3f", sWhole, sFar)
	}
	if sFar < 0.9 {
		t.Fatalf("far-BE SSIM = %.3f, want >= 0.9 at cutoff %v", sFar, cutoff)
	}
	if sWhole > 0.97 {
		t.Fatalf("whole-BE SSIM = %.3f suspiciously high; near-object effect not exercised", sWhole)
	}
}

func TestFarSimilarityMonotoneInCutoff(t *testing.T) {
	// Fig 5: SSIM between adjacent far-BE frames increases with the
	// cutoff radius (allowing small non-monotonic jitter per step, so we
	// compare the ends).
	s := denseScene(4, 260)
	r := New(s, DefaultConfig())
	eye1 := s.EyeAt(geom.V2(55, 62))
	eye2 := s.EyeAt(geom.V2(55.25, 62))
	var first, last float64
	for i, cutoff := range []float64{0, 2, 6, 12} {
		f1 := r.Panorama(eye1, cutoff, math.Inf(1), nil)
		f2 := r.Panorama(eye2, cutoff, math.Inf(1), nil)
		sv, err := ssim.Mean(f1, f2)
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			first = sv
		}
		last = sv
	}
	if last <= first {
		t.Fatalf("similarity did not increase with cutoff: %.3f -> %.3f", first, last)
	}
}

func TestNearFrameMask(t *testing.T) {
	s := denseScene(5, 100)
	r := New(s, Config{W: 64, H: 32})
	eye := s.EyeAt(geom.V2(60, 60))
	nf := r.NearFrame(eye, 10, nil)
	if nf.Mask == nil {
		t.Fatal("near frame must carry a mask")
	}
	masked := 0
	for _, m := range nf.Mask {
		if m {
			masked++
		}
	}
	if masked == 0 {
		t.Fatal("near frame empty: expected ground hits within cutoff")
	}
	if masked == len(nf.Mask) {
		t.Fatal("near frame fully opaque: cutoff window not applied")
	}
	// The bottom row looks almost straight down: ground at ~1.7 m, inside
	// the cutoff, so it must be masked.
	bottomStart := (nf.Gray.H - 1) * nf.Gray.W
	if !nf.Mask[bottomStart+nf.Gray.W/2] {
		t.Fatal("straight-down pixel should be in near BE")
	}
	// The top row is sky: never masked.
	if nf.Mask[nf.Gray.W/2] {
		t.Fatal("sky pixel must not be masked")
	}
}

func TestMergeReconstructsFullRender(t *testing.T) {
	// Merging the near frame with the far frame from the SAME viewpoint
	// must reproduce the unsplit render exactly: the split is lossless at
	// the cutoff boundary.
	s := denseScene(6, 150)
	r := New(s, Config{W: 96, H: 48})
	eye := s.EyeAt(geom.V2(60, 60))
	const cutoff = 7.0
	near := r.NearFrame(eye, cutoff, nil)
	far := r.Panorama(eye, cutoff, math.Inf(1), nil)
	merged := Merge(near, far)
	full := r.Panorama(eye, 0, math.Inf(1), nil)
	for i := range full.Pix {
		if merged.Pix[i] != full.Pix[i] {
			t.Fatalf("merge mismatch at pixel %d: %d vs %d", i, merged.Pix[i], full.Pix[i])
		}
	}
}

func TestMergeNilNear(t *testing.T) {
	far := img.NewGray(16, 16)
	far.Pix[5] = 77
	out := Merge(Frame{}, far)
	if out.Pix[5] != 77 {
		t.Fatal("nil near frame should copy far frame")
	}
	out.Pix[5] = 1
	if far.Pix[5] != 77 {
		t.Fatal("merge must not alias the far frame")
	}
}

func TestDynamicsRendered(t *testing.T) {
	s := world.New("empty", geom.NewRect(100, 100), 1, nil, 0)
	r := New(s, Config{W: 64, H: 32})
	eye := s.EyeAt(geom.V2(50, 50))
	// Avatar 3 m north of the eye at eye height.
	avatar := world.Object{
		ID: 1000, Kind: world.KindSphere,
		Center: geom.V3(50, 1.5, 53), Radius: 0.6, Triangles: 100, Shade: 0.9,
	}
	without := r.Panorama(eye, 0, math.Inf(1), nil)
	with := r.Panorama(eye, 0, math.Inf(1), []world.Object{avatar})
	diff, _ := img.MeanAbsDiff(without, with)
	if diff == 0 {
		t.Fatal("dynamic object did not render")
	}
}

func TestDynamicsRespectWindow(t *testing.T) {
	s := world.New("empty", geom.NewRect(100, 100), 1, nil, 0)
	r := New(s, Config{W: 64, H: 32})
	eye := s.EyeAt(geom.V2(50, 50))
	avatar := world.Object{
		ID: 1000, Kind: world.KindSphere,
		Center: geom.V3(50, 1.5, 53), Radius: 0.6, Triangles: 100, Shade: 0.9,
	}
	// Far window starting beyond the avatar: avatar's back face is at
	// ~3.6 m; with tMin=10 the avatar must be invisible.
	without := r.Panorama(eye, 10, math.Inf(1), nil)
	with := r.Panorama(eye, 10, math.Inf(1), []world.Object{avatar})
	diff, _ := img.MeanAbsDiff(without, with)
	if diff != 0 {
		t.Fatal("dynamic object leaked into far window")
	}
}

func TestFoVCrop(t *testing.T) {
	pano := img.NewGray(360, 180)
	for y := 0; y < 180; y++ {
		for x := 0; x < 360; x++ {
			pano.Set(x, y, uint8(x%256))
		}
	}
	fov, err := FoVCrop(pano, 0, math.Pi/2, math.Pi/2)
	if err != nil {
		t.Fatal(err)
	}
	if fov.W != 90 || fov.H != 90 {
		t.Fatalf("fov dims %dx%d", fov.W, fov.H)
	}
	// Yaw 0 maps to panorama centre column 180.
	centre := fov.At(fov.W/2, fov.H/2)
	if centre != uint8(180%256) {
		t.Fatalf("fov centre = %d, want 180", centre)
	}
	// Crop straddling the seam must not fail.
	if _, err := FoVCrop(pano, math.Pi*0.99, math.Pi/2, math.Pi/3); err != nil {
		t.Fatal(err)
	}
}

func TestGroundTruthMatchesUnclippedPanorama(t *testing.T) {
	s := denseScene(7, 60)
	r := New(s, Config{W: 64, H: 32})
	eye := s.EyeAt(geom.V2(40, 40))
	a := r.GroundTruth(eye, nil)
	b := r.Panorama(eye, 0, math.Inf(1), nil)
	for i := range a.Pix {
		if a.Pix[i] != b.Pix[i] {
			t.Fatal("GroundTruth must equal unclipped panorama")
		}
	}
}

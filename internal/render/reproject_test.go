package render

import (
	"math"
	"testing"

	"coterie/internal/geom"
	"coterie/internal/ssim"
)

func TestPanoramaBandMatchesFullRender(t *testing.T) {
	// The band renderer exists so reprojection verification can compare a
	// warped frame against ray-cast ground truth without paying for a full
	// render — which only works if band rows are byte-identical to the
	// same rows of a full Panorama.
	s := denseScene(41, 120)
	r := New(s, Config{W: 96, H: 48})
	eye := s.EyeAt(geom.V2(58, 61))
	full := r.Panorama(eye, 0, math.Inf(1), nil)
	for _, rows := range [][2]int{{0, 48}, {16, 32}, {0, 1}, {47, 48}, {-5, 60}} {
		band := r.PanoramaBand(eye, 0, math.Inf(1), nil, rows[0], rows[1])
		lo := rows[0]
		if lo < 0 {
			lo = 0
		}
		hi := rows[1]
		if hi > 48 {
			hi = 48
		}
		if band.W != 96 || band.H != hi-lo {
			t.Fatalf("band %v: dims %dx%d", rows, band.W, band.H)
		}
		for y := 0; y < band.H; y++ {
			for x := 0; x < band.W; x++ {
				if band.Pix[y*band.W+x] != full.Pix[(lo+y)*full.W+x] {
					t.Fatalf("band %v differs from full render at (%d,%d)", rows, x, lo+y)
				}
			}
		}
	}
}

func TestReprojectIdentityAtSameEye(t *testing.T) {
	// With fromEye == toEye every output ray subtends itself from the
	// source eye: the bilinear lookup lands on exact pixel centres and the
	// warp must reproduce the source byte-for-byte.
	s := denseScene(42, 100)
	r := New(s, Config{W: 96, H: 48})
	eye := s.EyeAt(geom.V2(60, 60))
	pano := r.Panorama(eye, 0, math.Inf(1), nil)
	rp := r.Reproject(pano, eye, eye, 50)
	if rp == nil {
		t.Fatal("Reproject returned nil for valid input")
	}
	for i := range pano.Pix {
		if rp.Pix[i] != pano.Pix[i] {
			t.Fatalf("identity warp changed pixel %d: %d vs %d", i, rp.Pix[i], pano.Pix[i])
		}
	}
	r.ReleaseGray(rp)
}

func TestReprojectDeterministicAcrossWorkers(t *testing.T) {
	s := denseScene(43, 100)
	eye := s.EyeAt(geom.V2(55, 58))
	to := s.EyeAt(geom.V2(56, 58.5))
	var want []uint8
	for _, workers := range []int{1, 2, 7} {
		setProcs(t, workers)
		r := New(s, Config{W: 96, H: 48})
		pano := r.Panorama(eye, 0, math.Inf(1), nil)
		rp := r.Reproject(pano, eye, to, 60)
		if want == nil {
			want = append([]uint8(nil), rp.Pix...)
		} else {
			for i := range want {
				if rp.Pix[i] != want[i] {
					t.Fatalf("%d workers changed reprojection at pixel %d", workers, i)
				}
			}
		}
	}
}

func TestReprojectRejectsBadInput(t *testing.T) {
	s := denseScene(44, 40)
	r := New(s, Config{W: 64, H: 32})
	eye := s.EyeAt(geom.V2(60, 60))
	pano := r.Panorama(eye, 0, math.Inf(1), nil)
	if r.Reproject(nil, eye, eye, 50) != nil {
		t.Fatal("nil pano accepted")
	}
	if r.Reproject(pano, eye, eye, 0) != nil {
		t.Fatal("zero depth accepted")
	}
	other := New(s, Config{W: 96, H: 48})
	if other.Reproject(pano, eye, eye, 50) != nil {
		t.Fatal("mismatched pano resolution accepted")
	}
}

func TestReprojectNearbyEyeStaysSimilar(t *testing.T) {
	// The property the server's fallback rule relies on: for a small eye
	// displacement relative to the content depth, the warped frame tracks
	// the real render closely (high SSIM), and the approximation degrades
	// as the displacement grows — which is exactly when the server's SSIM
	// verification rejects it and falls back to a full render.
	s := denseScene(45, 60)
	r := New(s, Config{W: 128, H: 64})
	from := s.EyeAt(geom.V2(60, 60))
	pano := r.Panorama(from, 20, math.Inf(1), nil)

	near := s.EyeAt(geom.V2(60.4, 60))
	far := s.EyeAt(geom.V2(70, 66))
	depth := 60.0

	rpNear := r.Reproject(pano, from, near, depth)
	gtNear := r.Panorama(near, 20, math.Inf(1), nil)
	sNear, err := ssim.Mean(rpNear, gtNear)
	if err != nil {
		t.Fatal(err)
	}
	rpFar := r.Reproject(pano, from, far, depth)
	gtFar := r.Panorama(far, 20, math.Inf(1), nil)
	sFar, err := ssim.Mean(rpFar, gtFar)
	if err != nil {
		t.Fatal(err)
	}
	if sNear < ssim.GoodThreshold {
		t.Fatalf("near reprojection SSIM %.4f below the good threshold %.2f", sNear, ssim.GoodThreshold)
	}
	if sFar >= sNear {
		t.Fatalf("reprojection quality did not degrade with distance: near %.4f, far %.4f", sNear, sFar)
	}
	t.Logf("reprojection SSIM: near %.4f, far %.4f", sNear, sFar)
}

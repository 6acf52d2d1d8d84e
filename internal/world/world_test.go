package world

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"coterie/internal/geom"
)

func testScene() *Scene {
	objs := []Object{
		{ID: 0, Kind: KindSphere, Center: geom.V3(10, 1, 10), Radius: 1, Triangles: 100, Shade: 0.5},
		{ID: 1, Kind: KindBox, Center: geom.V3(30, 2, 30), Half: geom.V3(2, 2, 2), Triangles: 200, Shade: 0.6},
		{ID: 2, Kind: KindSphere, Center: geom.V3(50, 3, 10), Radius: 3, Triangles: 300, Shade: 0.7},
	}
	return New("test", geom.NewRect(64, 64), 0.5, objs, 1.0)
}

func TestSceneValidate(t *testing.T) {
	s := testScene()
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := New("bad", geom.NewRect(10, 10), 1, []Object{{ID: 0, Kind: KindSphere, Radius: 0, Triangles: 1}}, 0)
	if err := bad.Validate(); err == nil {
		t.Fatal("expected validation error for zero-radius sphere")
	}
	bad2 := New("bad2", geom.NewRect(10, 10), 1, []Object{{ID: 0, Kind: KindSphere, Radius: 1, Triangles: 0}}, 0)
	if err := bad2.Validate(); err == nil {
		t.Fatal("expected validation error for zero triangles")
	}
}

func TestEyeHeight(t *testing.T) {
	s := testScene()
	eye := s.Eye(geom.GridPoint{I: 4, J: 6})
	if eye.Y != EyeHeight {
		t.Fatalf("eye Y = %v", eye.Y)
	}
	if eye.X != 2 || eye.Z != 3 {
		t.Fatalf("eye pos = %v", eye)
	}
}

func TestIntersectHitsSphere(t *testing.T) {
	s := testScene()
	q := s.NewQuery()
	// Ray from origin-ish toward the sphere at (10,1,10).
	origin := geom.V3(10, 1, 0)
	r := geom.Ray{Origin: origin, Direction: geom.V3(0, 0, 1)}
	hit, ok := s.Intersect(q, r, 0, math.Inf(1))
	if !ok || hit.Object == nil || hit.Object.ID != 0 {
		t.Fatalf("hit = %+v ok=%v", hit, ok)
	}
	if math.Abs(hit.T-9) > 1e-9 {
		t.Fatalf("t = %v, want 9", hit.T)
	}
}

func TestIntersectHitsGround(t *testing.T) {
	s := testScene()
	q := s.NewQuery()
	r := geom.Ray{Origin: geom.V3(5, 2, 5), Direction: geom.V3(0, -1, 0)}
	hit, ok := s.Intersect(q, r, 0, math.Inf(1))
	if !ok || hit.Object != nil {
		t.Fatalf("expected ground hit, got %+v ok=%v", hit, ok)
	}
	if math.Abs(hit.T-2) > 1e-9 {
		t.Fatalf("ground t = %v", hit.T)
	}
}

func TestIntersectSkyMiss(t *testing.T) {
	s := testScene()
	q := s.NewQuery()
	r := geom.Ray{Origin: geom.V3(5, 2, 5), Direction: geom.V3(0, 1, 0)}
	if _, ok := s.Intersect(q, r, 0, math.Inf(1)); ok {
		t.Fatal("upward ray should miss everything")
	}
}

func TestIntersectClipWindow(t *testing.T) {
	s := testScene()
	q := s.NewQuery()
	origin := geom.V3(10, 1, 0)
	r := geom.Ray{Origin: origin, Direction: geom.V3(0, 0, 1)}
	// Sphere hit is at t=9. With tMax=5 the window excludes it.
	if _, ok := s.Intersect(q, r, 0, 5); ok {
		t.Fatal("hit found outside clip window")
	}
	// With tMin=9.5 the front face is excluded but the back face (t=11)
	// is in-window: distance clipping cuts objects mid-way, as the paper
	// allows for the near/far BE split.
	hit, ok := s.Intersect(q, r, 9.5, math.Inf(1))
	if !ok || hit.Object == nil || hit.Object.ID != 0 {
		t.Fatalf("expected back-face hit, got %+v ok=%v", hit, ok)
	}
	if math.Abs(hit.T-11) > 1e-9 {
		t.Fatalf("back-face t = %v, want 11", hit.T)
	}
}

// Property: the accelerated intersect agrees with brute force.
func TestIndexMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	objs := make([]Object, 120)
	for i := range objs {
		if i%3 == 0 {
			objs[i] = Object{
				ID: i, Kind: KindBox,
				Center:    geom.V3(rng.Float64()*100, rng.Float64()*4, rng.Float64()*100),
				Half:      geom.V3(0.5+rng.Float64()*2, 0.5+rng.Float64()*3, 0.5+rng.Float64()*2),
				Triangles: 10,
			}
		} else {
			objs[i] = Object{
				ID: i, Kind: KindSphere,
				Center:    geom.V3(rng.Float64()*100, rng.Float64()*4, rng.Float64()*100),
				Radius:    0.3 + rng.Float64()*2,
				Triangles: 10,
			}
		}
	}
	s := New("brute", geom.NewRect(100, 100), 0.5, objs, 0)
	q := s.NewQuery()

	brute := func(r geom.Ray, tMin, tMax float64) (int, float64, bool) {
		bestT := tMax
		bestID := -1
		if r.Direction.Y < 0 {
			if t := -r.Origin.Y / r.Direction.Y; t >= tMin && t < bestT {
				bestT = t
				bestID = -2 // ground
			}
		}
		for i := range objs {
			if t, ok := objs[i].IntersectFrom(r, tMin); ok && t < bestT {
				bestT, bestID = t, objs[i].ID
			}
		}
		return bestID, bestT, bestID != -1
	}

	for trial := 0; trial < 500; trial++ {
		origin := geom.V3(rng.Float64()*100, 0.2+rng.Float64()*3, rng.Float64()*100)
		dir := geom.V3(rng.NormFloat64(), rng.NormFloat64()*0.3, rng.NormFloat64()).Norm()
		if dir.Len() == 0 {
			continue
		}
		tMin := 0.0
		tMax := math.Inf(1)
		if trial%4 == 0 {
			tMin = rng.Float64() * 10
		}
		if trial%5 == 0 {
			tMax = tMin + rng.Float64()*50
		}
		r := geom.Ray{Origin: origin, Direction: dir}
		wantID, wantT, wantOK := brute(r, tMin, tMax)
		hit, ok := s.Intersect(q, r, tMin, tMax)
		if ok != wantOK {
			t.Fatalf("trial %d: ok=%v want %v (ray %+v)", trial, ok, wantOK, r)
		}
		if !ok {
			continue
		}
		gotID := -2
		if hit.Object != nil {
			gotID = hit.Object.ID
		}
		if gotID != wantID || math.Abs(hit.T-wantT) > 1e-9 {
			t.Fatalf("trial %d: got obj %d t=%v, want obj %d t=%v", trial, gotID, hit.T, wantID, wantT)
		}
	}
}

func TestTrianglesWithin(t *testing.T) {
	s := testScene()
	q := s.NewQuery()
	// Around (10,10): sphere 0 only, plus terrain.
	got := s.TrianglesWithin(q, geom.V2(10, 10), 5)
	terrain := int(math.Pi * 25 * s.GroundTris)
	if got != 100+terrain {
		t.Fatalf("tris = %d, want %d", got, 100+terrain)
	}
	// Tiny radius far from objects: terrain only.
	got = s.TrianglesWithin(q, geom.V2(20, 50), 1)
	if got != int(math.Pi*1*s.GroundTris) {
		t.Fatalf("terrain-only tris = %d", got)
	}
	// Radius covering everything.
	got = s.TrianglesWithin(q, geom.V2(32, 32), 1000)
	if got < 600 {
		t.Fatalf("all-objects tris = %d, want >= 600", got)
	}
}

func TestTrianglesWithinMonotoneInRadius(t *testing.T) {
	s := testScene()
	q := s.NewQuery()
	f := func(x, z float64, r1, r2 float64) bool {
		p := geom.V2(math.Abs(math.Mod(x, 64)), math.Abs(math.Mod(z, 64)))
		a := math.Abs(math.Mod(r1, 40))
		b := math.Abs(math.Mod(r2, 40))
		if a > b {
			a, b = b, a
		}
		return s.TrianglesWithin(q, p, a) <= s.TrianglesWithin(q, p, b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestTrianglesWithinExceedsMatchesCount checks the capped count against
// the full one: TrianglesWithinExceeds(q, p, r, limit) must equal
// TrianglesWithin(q, p, r) > limit on random scenes, points and radii, at
// the limits where an off-by-one or a missing term shows (the exact count,
// one either side of it, the terrain's own count, -1 and 0), on discs that
// hold no object and discs wider than the world.
func TestTrianglesWithinExceedsMatchesCount(t *testing.T) {
	rng := rand.New(rand.NewSource(40))
	for sc := 0; sc < 30; sc++ {
		w, d := 10+rng.Float64()*90, 10+rng.Float64()*90
		var objs []Object
		n := rng.Intn(200) // some scenes hold no object at all
		if sc%5 == 0 {
			n = 0
		}
		for i := 0; i < n; i++ {
			o := Object{
				ID: i, Kind: KindSphere,
				Center:    geom.V3(rng.Float64()*w, 1, rng.Float64()*d),
				Radius:    0.2 + rng.Float64()*2,
				Triangles: 1 + rng.Intn(5000),
			}
			if rng.Intn(2) == 0 {
				o.Kind = KindBox
				o.Half = geom.V3(0.2+rng.Float64()*3, 1, 0.2+rng.Float64()*3)
			}
			objs = append(objs, o)
		}
		ground := []float64{0, 0.3, 5, 40}[rng.Intn(4)]
		s := New("exceeds", geom.NewRect(w, d), 0.5, objs, ground)
		q := s.NewQuery()
		diag := math.Hypot(w, d)
		for i := 0; i < 40; i++ {
			p := geom.V2(rng.Float64()*w, rng.Float64()*d)
			radii := []float64{0, rng.Float64(), rng.Float64() * diag / 2, diag * (1 + rng.Float64())}
			for _, r := range radii {
				count := s.TrianglesWithin(q, p, r)
				terrain := s.terrainWithin(r)
				for _, limit := range []int{-1, 0, count - 1, count, count + 1, terrain - 1, terrain, rng.Intn(count + 1)} {
					if got, want := s.TrianglesWithinExceeds(q, p, r, limit), count > limit; got != want {
						t.Fatalf("scene %d (%d objects, ground %v), p %v, r %v: Exceeds(limit %d) = %v, want %v (count %d, terrain %d)",
							sc, len(objs), ground, p, r, limit, got, want, count, terrain)
					}
				}
			}
		}
	}
}

func TestObjectsWithinAndSignature(t *testing.T) {
	s := testScene()
	q := s.NewQuery()
	ids := s.ObjectsWithin(q, nil, geom.V2(10, 10), 5)
	if len(ids) != 1 || ids[0] != 0 {
		t.Fatalf("ids = %v", ids)
	}
	// Signature equal for same set, different for different sets.
	sigA := s.NearSetSignature(q, geom.V2(10, 10), 5)
	sigB := s.NearSetSignature(q, geom.V2(10.2, 10.1), 5)
	if sigA != sigB {
		t.Fatal("same near set should give same signature")
	}
	sigC := s.NearSetSignature(q, geom.V2(30, 30), 5)
	if sigA == sigC {
		t.Fatal("different near sets should give different signatures")
	}
	sigEmpty := s.NearSetSignature(q, geom.V2(20, 50), 0.5)
	if sigEmpty == sigA {
		t.Fatal("empty set signature collided")
	}
}

func TestSignatureOrderIndependent(t *testing.T) {
	// The signature must not depend on the order the index yields IDs.
	ids1 := []int{3, 17, 99}
	ids2 := []int{99, 3, 17}
	if hashIDSet(ids1) != hashIDSet(ids2) {
		t.Fatal("signature depends on order")
	}
}

// hashIDSet mirrors NearSetSignature's combination for the order test.
func hashIDSet(ids []int) uint64 {
	var sum, xor uint64
	for _, id := range ids {
		h := splitmix64(uint64(id) + 0x9E3779B97F4A7C15)
		sum += h
		xor ^= h
	}
	return sum ^ (xor << 1) ^ uint64(len(ids))
}

func TestTotalTriangles(t *testing.T) {
	s := testScene()
	want := 600 + int(s.Bounds.Area()*s.GroundTris)
	if got := s.TotalTriangles(); got != want {
		t.Fatalf("total = %d, want %d", got, want)
	}
}

func TestObjectBounds(t *testing.T) {
	sp := Object{Kind: KindSphere, Center: geom.V3(1, 2, 3), Radius: 2}
	b := sp.Bounds()
	if b.Min != geom.V3(-1, 0, 1) || b.Max != geom.V3(3, 4, 5) {
		t.Fatalf("sphere bounds = %+v", b)
	}
	bx := Object{Kind: KindBox, Center: geom.V3(0, 0, 0), Half: geom.V3(1, 2, 3)}
	b = bx.Bounds()
	if b.Min != geom.V3(-1, -2, -3) || b.Max != geom.V3(1, 2, 3) {
		t.Fatalf("box bounds = %+v", b)
	}
}

func TestConcurrentQueries(t *testing.T) {
	s := testScene()
	done := make(chan bool)
	for g := 0; g < 4; g++ {
		go func(seed int64) {
			rng := rand.New(rand.NewSource(seed))
			q := s.NewQuery()
			for i := 0; i < 200; i++ {
				origin := geom.V3(rng.Float64()*64, 1.7, rng.Float64()*64)
				dir := geom.V3(rng.NormFloat64(), -0.1, rng.NormFloat64()).Norm()
				s.Intersect(q, geom.Ray{Origin: origin, Direction: dir}, 0, math.Inf(1))
				s.TrianglesWithin(q, geom.V2(origin.X, origin.Z), rng.Float64()*10)
			}
			done <- true
		}(int64(g))
	}
	for g := 0; g < 4; g++ {
		<-done
	}
}

package img

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"
)

func randomGray(rng *rand.Rand, w, h int) *Gray {
	g := NewGray(w, h)
	for i := range g.Pix {
		g.Pix[i] = uint8(rng.Intn(256))
	}
	return g
}

func TestNewGrayZeroed(t *testing.T) {
	g := NewGray(4, 3)
	if g.W != 4 || g.H != 3 || len(g.Pix) != 12 {
		t.Fatalf("bad dims: %dx%d len %d", g.W, g.H, len(g.Pix))
	}
	for _, p := range g.Pix {
		if p != 0 {
			t.Fatal("not zeroed")
		}
	}
}

func TestNewGrayPanicsOnBadDims(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewGray(0, 5)
}

func TestSetAt(t *testing.T) {
	g := NewGray(3, 3)
	g.Set(2, 1, 200)
	if g.At(2, 1) != 200 {
		t.Fatal("Set/At mismatch")
	}
	if g.Pix[1*3+2] != 200 {
		t.Fatal("row-major layout broken")
	}
}

func TestCloneIndependent(t *testing.T) {
	g := NewGray(2, 2)
	g.Set(0, 0, 9)
	c := g.Clone()
	c.Set(0, 0, 7)
	if g.At(0, 0) != 9 {
		t.Fatal("clone shares storage")
	}
}

func TestCrop(t *testing.T) {
	g := NewGray(10, 8)
	for y := 0; y < 8; y++ {
		for x := 0; x < 10; x++ {
			g.Set(x, y, uint8(y*10+x))
		}
	}
	c, err := g.CropWrapX(2, 3, 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	if c.W != 4 || c.H != 2 {
		t.Fatalf("crop dims %dx%d", c.W, c.H)
	}
	if c.At(0, 0) != 32 || c.At(3, 1) != 45 {
		t.Fatalf("crop content wrong: %d %d", c.At(0, 0), c.At(3, 1))
	}
	if _, err := g.CropWrapX(0, 7, 4, 2); err == nil {
		t.Fatal("expected out-of-bounds error")
	}
	if _, err := g.CropWrapX(0, 0, 0, 2); err == nil {
		t.Fatal("expected zero-width error")
	}
}

func TestCropWrapXSeam(t *testing.T) {
	g := NewGray(8, 2)
	for x := 0; x < 8; x++ {
		g.Set(x, 0, uint8(x))
		g.Set(x, 1, uint8(x+100))
	}
	// Crop straddling the right edge: columns 6,7,0,1.
	c, err := g.CropWrapX(6, 0, 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	want := []uint8{6, 7, 0, 1}
	for i, w := range want {
		if c.At(i, 0) != w {
			t.Fatalf("wrap crop col %d = %d want %d", i, c.At(i, 0), w)
		}
	}
	// Negative x0 wraps too.
	c, err = g.CropWrapX(-2, 0, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	if c.At(0, 0) != 6 || c.At(2, 0) != 0 {
		t.Fatalf("negative wrap crop wrong: %v", c.Pix)
	}
}

func TestMeanAbsDiff(t *testing.T) {
	a := NewGray(2, 2)
	b := NewGray(2, 2)
	b.Pix = []uint8{10, 0, 0, 0}
	d, err := MeanAbsDiff(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if d != 2.5 {
		t.Fatalf("MAD = %v, want 2.5", d)
	}
	if _, err := MeanAbsDiff(a, NewGray(3, 2)); err == nil {
		t.Fatal("expected size mismatch error")
	}
}

func TestMeanAbsDiffProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	f := func() bool {
		a := randomGray(rng, 9, 7)
		b := randomGray(rng, 9, 7)
		dab, _ := MeanAbsDiff(a, b)
		dba, _ := MeanAbsDiff(b, a)
		daa, _ := MeanAbsDiff(a, a)
		return dab == dba && daa == 0 && dab >= 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestWritePGM(t *testing.T) {
	g := NewGray(2, 2)
	g.Pix = []uint8{1, 2, 3, 4}
	var buf bytes.Buffer
	if err := g.WritePGM(&buf); err != nil {
		t.Fatal(err)
	}
	want := append([]byte("P5\n2 2\n255\n"), 1, 2, 3, 4)
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("PGM = %q", buf.Bytes())
	}
}

func TestRGBToGray(t *testing.T) {
	m := NewRGB(1, 1)
	m.Set(0, 0, 255, 255, 255)
	if g := m.ToGray(); g.At(0, 0) != 255 {
		t.Fatalf("white -> %d", g.At(0, 0))
	}
	m.Set(0, 0, 0, 0, 0)
	if g := m.ToGray(); g.At(0, 0) != 0 {
		t.Fatalf("black -> %d", g.At(0, 0))
	}
	m.Set(0, 0, 255, 0, 0)
	if g := m.ToGray(); g.At(0, 0) != 76 {
		t.Fatalf("red -> %d, want 76", g.At(0, 0))
	}
}

func TestRGBRoundTrip(t *testing.T) {
	m := NewRGB(3, 2)
	m.Set(2, 1, 1, 2, 3)
	r, g, b := m.At(2, 1)
	if r != 1 || g != 2 || b != 3 {
		t.Fatalf("At = %d,%d,%d", r, g, b)
	}
}

func TestWritePPM(t *testing.T) {
	m := NewRGB(1, 1)
	m.Set(0, 0, 9, 8, 7)
	var buf bytes.Buffer
	if err := m.WritePPM(&buf); err != nil {
		t.Fatal(err)
	}
	want := append([]byte("P6\n1 1\n255\n"), 9, 8, 7)
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("PPM = %q", buf.Bytes())
	}
}

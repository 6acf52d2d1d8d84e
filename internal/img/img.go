// Package img provides the minimal frame-buffer types shared by the
// renderer, codec and SSIM metric: 8-bit grayscale (luma) and RGB images,
// plus the wrap-around FoV crop and PGM/PPM export for inspection.
//
// Coterie frames are carried as luma planes: SSIM (the paper's similarity
// metric) is defined on luminance, and the codec compresses the luma plane.
package img

import (
	"errors"
	"fmt"
	"io"
)

// Gray is an 8-bit single-channel (luma) image with row-major Pix of length
// W*H.
type Gray struct {
	W, H int
	Pix  []uint8
}

// NewGray allocates a zeroed W x H luma image.
func NewGray(w, h int) *Gray {
	if w <= 0 || h <= 0 {
		panic(fmt.Sprintf("img: invalid dimensions %dx%d", w, h))
	}
	return &Gray{W: w, H: h, Pix: make([]uint8, w*h)}
}

// At returns the pixel at (x, y).
func (g *Gray) At(x, y int) uint8 { return g.Pix[y*g.W+x] }

// Set writes the pixel at (x, y).
func (g *Gray) Set(x, y int, v uint8) { g.Pix[y*g.W+x] = v }

// Clone returns a deep copy of the image.
func (g *Gray) Clone() *Gray {
	c := NewGray(g.W, g.H)
	copy(c.Pix, g.Pix)
	return c
}

// SameSize reports whether two images have identical dimensions.
func (g *Gray) SameSize(o *Gray) bool { return g.W == o.W && g.H == o.H }

// CropWrapX returns the sub-image [x0,x0+w) x [y0,y0+h) as a new image,
// wrapping horizontally: Coterie crops a Field-of-View frame out of a
// 360-degree equirectangular panorama at almost no cost (§2.2), and the
// view may straddle the +/-180 degree seam. x0 may be any integer; the
// rows must lie inside the source.
func (g *Gray) CropWrapX(x0, y0, w, h int) (*Gray, error) {
	if y0 < 0 || w <= 0 || h <= 0 || y0+h > g.H || w > g.W {
		return nil, fmt.Errorf("img: wrap-crop %d,%d %dx%d outside %dx%d", x0, y0, w, h, g.W, g.H)
	}
	c := NewGray(w, h)
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			sx := ((x0+x)%g.W + g.W) % g.W
			c.Pix[y*w+x] = g.Pix[(y0+y)*g.W+sx]
		}
	}
	return c, nil
}

// MeanAbsDiff returns the mean absolute pixel difference between two
// same-sized images.
func MeanAbsDiff(a, b *Gray) (float64, error) {
	if !a.SameSize(b) {
		return 0, errors.New("img: size mismatch")
	}
	var sum int64
	for i := range a.Pix {
		d := int(a.Pix[i]) - int(b.Pix[i])
		if d < 0 {
			d = -d
		}
		sum += int64(d)
	}
	return float64(sum) / float64(len(a.Pix)), nil
}

// WritePGM writes the image in binary PGM (P5) format.
func (g *Gray) WritePGM(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "P5\n%d %d\n255\n", g.W, g.H); err != nil {
		return err
	}
	_, err := w.Write(g.Pix)
	return err
}

// RGB is an 8-bit three-channel image with row-major Pix of length W*H*3.
type RGB struct {
	W, H int
	Pix  []uint8
}

// NewRGB allocates a zeroed W x H colour image.
func NewRGB(w, h int) *RGB {
	if w <= 0 || h <= 0 {
		panic(fmt.Sprintf("img: invalid dimensions %dx%d", w, h))
	}
	return &RGB{W: w, H: h, Pix: make([]uint8, w*h*3)}
}

// Set writes the pixel at (x, y).
func (m *RGB) Set(x, y int, r, g, b uint8) {
	i := (y*m.W + x) * 3
	m.Pix[i], m.Pix[i+1], m.Pix[i+2] = r, g, b
}

// At returns the pixel at (x, y).
func (m *RGB) At(x, y int) (r, g, b uint8) {
	i := (y*m.W + x) * 3
	return m.Pix[i], m.Pix[i+1], m.Pix[i+2]
}

// ToGray converts the colour image to luma using the BT.601 weights.
func (m *RGB) ToGray() *Gray {
	g := NewGray(m.W, m.H)
	for i := 0; i < m.W*m.H; i++ {
		r := float64(m.Pix[i*3])
		gg := float64(m.Pix[i*3+1])
		b := float64(m.Pix[i*3+2])
		g.Pix[i] = uint8(0.299*r + 0.587*gg + 0.114*b + 0.5)
	}
	return g
}

// WritePPM writes the image in binary PPM (P6) format.
func (m *RGB) WritePPM(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "P6\n%d %d\n255\n", m.W, m.H); err != nil {
		return err
	}
	_, err := w.Write(m.Pix)
	return err
}

package codec

import "math"

// 8x8 type-II DCT and its inverse, applied separably, as used by the
// intra-frame transform stage. Coefficients are precomputed with the
// orthonormal scale factor alpha(u) folded into the table, so the transform
// loops are pure multiply-accumulate with no per-element scaling.

const blockSize = 8

// dctCosA[u][x] = alpha(u) * cos((2x+1)u pi/16), where alpha(0) = sqrt(1/8)
// and alpha(u>0) = sqrt(2/8). Both the forward and inverse transforms consume
// this table: the forward pass scales each output coefficient u by alpha(u),
// the inverse pass scales each input coefficient by the same factor.
var dctCosA [blockSize][blockSize]float64

func init() {
	for u := 0; u < blockSize; u++ {
		a := math.Sqrt(2.0 / blockSize)
		if u == 0 {
			a = math.Sqrt(1.0 / blockSize)
		}
		for x := 0; x < blockSize; x++ {
			dctCosA[u][x] = a * math.Cos(float64(2*x+1)*float64(u)*math.Pi/(2*blockSize))
		}
	}
}

// The kernels below compute every output as the naive triple loop does —
// s starts at zero and takes s += a * b for the same eight products in the
// same order — so each float64 is bit-identical to that loop's (the oracle
// in kernels_test.go). What differs is the loop nest: the eight outputs of
// a row or column accumulate side by side in eight independent sums, so
// the FP adds pipeline instead of each waiting out the previous add's
// latency on one serial chain.

// fdct8x8 computes the forward 8x8 DCT of src into dst (row-major, both 64
// elements).
func fdct8x8(src, dst *[64]float64) {
	var tmp [64]float64
	// Rows: tmp[y][u] = sum over x of src[y][x] * dctCosA[u][x].
	for y := 0; y < blockSize; y++ {
		var s0, s1, s2, s3, s4, s5, s6, s7 float64
		for x, a := range (*[blockSize]float64)(src[y*blockSize:]) {
			s0 += a * dctCosA[0][x]
			s1 += a * dctCosA[1][x]
			s2 += a * dctCosA[2][x]
			s3 += a * dctCosA[3][x]
			s4 += a * dctCosA[4][x]
			s5 += a * dctCosA[5][x]
			s6 += a * dctCosA[6][x]
			s7 += a * dctCosA[7][x]
		}
		t := (*[blockSize]float64)(tmp[y*blockSize:])
		t[0], t[1], t[2], t[3], t[4], t[5], t[6], t[7] = s0, s1, s2, s3, s4, s5, s6, s7
	}
	// Columns: dst[v][u] = sum over y of tmp[y][u] * dctCosA[v][y].
	for v := 0; v < blockSize; v++ {
		var s0, s1, s2, s3, s4, s5, s6, s7 float64
		for y, c := range dctCosA[v] {
			t := (*[blockSize]float64)(tmp[y*blockSize:])
			s0 += t[0] * c
			s1 += t[1] * c
			s2 += t[2] * c
			s3 += t[3] * c
			s4 += t[4] * c
			s5 += t[5] * c
			s6 += t[6] * c
			s7 += t[7] * c
		}
		d := (*[blockSize]float64)(dst[v*blockSize:])
		d[0], d[1], d[2], d[3], d[4], d[5], d[6], d[7] = s0, s1, s2, s3, s4, s5, s6, s7
	}
}

// idct8x8 computes the inverse 8x8 DCT of src into dst.
func idct8x8(src, dst *[64]float64) {
	// Quantised blocks are mostly zero beyond the first few frequencies:
	// only rows below nv and columns below nu hold a non-zero coefficient.
	// The rest contribute ±0 products, and a sum that started at +0 is
	// never -0, so adding ±0 cannot change it: skipping them keeps every
	// output bit (coefficients are finite, so no 0 * Inf).
	nv, nu := 0, 0
	for v := 0; v < blockSize; v++ {
		for u, a := range (*[blockSize]float64)(src[v*blockSize:]) {
			if a != 0 {
				nv = v + 1
				nu = max(nu, u+1)
			}
		}
	}
	var tmp [64]float64
	// Columns: tmp[y][u] = sum over v of src[v][u] * dctCosA[v][y].
	for y := 0; y < blockSize; y++ {
		var s0, s1, s2, s3, s4, s5, s6, s7 float64
		for v := range dctCosA[:nv] {
			c := dctCosA[v][y]
			r := (*[blockSize]float64)(src[v*blockSize:])
			s0 += r[0] * c
			s1 += r[1] * c
			s2 += r[2] * c
			s3 += r[3] * c
			s4 += r[4] * c
			s5 += r[5] * c
			s6 += r[6] * c
			s7 += r[7] * c
		}
		t := (*[blockSize]float64)(tmp[y*blockSize:])
		t[0], t[1], t[2], t[3], t[4], t[5], t[6], t[7] = s0, s1, s2, s3, s4, s5, s6, s7
	}
	// Rows: dst[y][x] = sum over u of tmp[y][u] * dctCosA[u][x].
	for y := 0; y < blockSize; y++ {
		var s0, s1, s2, s3, s4, s5, s6, s7 float64
		for u, a := range (*[blockSize]float64)(tmp[y*blockSize:])[:nu] {
			c := &dctCosA[u]
			s0 += a * c[0]
			s1 += a * c[1]
			s2 += a * c[2]
			s3 += a * c[3]
			s4 += a * c[4]
			s5 += a * c[5]
			s6 += a * c[6]
			s7 += a * c[7]
		}
		d := (*[blockSize]float64)(dst[y*blockSize:])
		d[0], d[1], d[2], d[3], d[4], d[5], d[6], d[7] = s0, s1, s2, s3, s4, s5, s6, s7
	}
}

// zigzag maps scan order -> block index, the standard JPEG/H.264 zigzag.
var zigzag = [64]int{
	0, 1, 8, 16, 9, 2, 3, 10,
	17, 24, 32, 25, 18, 11, 4, 5,
	12, 19, 26, 33, 40, 48, 41, 34,
	27, 20, 13, 6, 7, 14, 21, 28,
	35, 42, 49, 56, 57, 50, 43, 36,
	29, 22, 15, 23, 30, 37, 44, 51,
	58, 59, 52, 45, 38, 31, 39, 46,
	53, 60, 61, 54, 47, 55, 62, 63,
}

// baseQuant is the JPEG luminance quantisation matrix; it is scaled by the
// quality factor derived from the CRF setting.
var baseQuant = [64]float64{
	16, 11, 10, 16, 24, 40, 51, 61,
	12, 12, 14, 19, 26, 58, 60, 55,
	14, 13, 16, 24, 40, 57, 69, 56,
	14, 17, 22, 29, 51, 87, 80, 62,
	18, 22, 37, 56, 68, 109, 103, 77,
	24, 35, 55, 64, 81, 104, 113, 92,
	49, 64, 78, 87, 103, 121, 120, 101,
	72, 92, 95, 98, 112, 100, 103, 99,
}

// quantTables holds the quantisation matrix for every CRF in [0, 51],
// precomputed once so Encode/Decode never rebuild the 64-entry table per
// frame.
var quantTables [52][64]float64

func init() {
	for crf := range quantTables {
		// Map CRF 0..51 to JPEG-style quality 100..10. CRF 25 lands at
		// quality ~56, which keeps structured frames above SSIM 0.9 like
		// the paper's x264 CRF 25 setting does (Table 7).
		quality := 100 - float64(crf)*90.0/51.0
		var scale float64
		if quality < 50 {
			scale = 5000 / quality
		} else {
			scale = 200 - 2*quality
		}
		for i := range quantTables[crf] {
			v := math.Floor((baseQuant[i]*scale + 50) / 100)
			if v < 1 {
				v = 1
			}
			quantTables[crf][i] = v
		}
	}
}

// quantTable returns the quantisation matrix for a CRF in [0, 51]. CRF 0 is
// near-lossless; the paper's server encodes with CRF 25 (§5.1).
func quantTable(crf int) *[64]float64 {
	return &quantTables[clampCRF(crf)]
}

// Delta (inter-frame) coding against a reference frame. Coterie's core
// observation (§3) is that panoramic frames at nearby grid points are
// highly similar — often SSIM ≥ 0.95 — so coding the residual against a
// frame the client already holds costs a fraction of an intra frame. A
// delta stream shares the intra magic but carries versionDelta in the
// version byte, so any stream identifies its own kind (see Kind) and a
// delta can never be mistaken for an intra frame by Decode.
//
// Layout after the shared magic(16)/version(8)/crf(8)/UE(W)/UE(H) header
// (writeHeader),
// per 8x8 block in raster order:
//
//	1 bit  skip flag — 1 means the quantised residual is all zero and the
//	       block is copied from the reference verbatim (the "zero-block
//	       skip map": similar regions cost one bit)
//	else   SE(DC) + AC run/level coding of the quantised residual DCT
//
// Residuals are cur−ref with no level shift (they are already centred on
// zero), and DC is coded without prediction: skip blocks would make the
// predictor chain ambiguous and residual DCs are near zero anyway.
package codec

import (
	"errors"
	"fmt"

	"coterie/internal/img"
)

// FrameKind identifies the stream layout of an encoded frame.
type FrameKind uint8

const (
	// KindUnknown marks streams too short or corrupt to classify.
	KindUnknown FrameKind = iota
	// KindIntra is a self-contained frame from Encode.
	KindIntra
	// KindDelta is a residual frame from DeltaEncode; it needs the
	// reference raster to reconstruct.
	KindDelta
)

// Kind inspects an encoded stream's header and reports its frame kind
// without decoding it.
func Kind(data []byte) FrameKind {
	if len(data) < 3 || data[0] != 0xC0 || data[1] != 0x7E {
		return KindUnknown
	}
	switch data[2] {
	case version:
		return KindIntra
	case versionDelta:
		return KindDelta
	}
	return KindUnknown
}

// DeltaEncode compresses cur as a residual against ref at the given CRF.
// Both frames must have identical dimensions; mismatched inputs return
// nil (the caller falls back to intra coding). Decode the result with
// DeltaDecode against the same reference raster.
func DeltaEncode(cur, ref *img.Gray, crf int) []byte {
	if cur == nil || ref == nil || cur.W != ref.W || cur.H != ref.H {
		return nil
	}
	q := quantTable(crf)
	bw := writerPool.Get().(*bitWriter)
	bw.reset(cur.W * cur.H / 16)
	writeHeader(bw, versionDelta, crf, cur.W, cur.H)

	bw64 := blocksAcross(cur.W)
	bh64 := blocksAcross(cur.H)

	var res, coef [64]float64
	for by := 0; by < bh64; by++ {
		for bx := 0; bx < bw64; bx++ {
			// Fast path: a byte-identical block skips the DCT entirely.
			if loadResidualBlock(cur, ref, bx*blockSize, by*blockSize, &res) {
				bw.writeBits(1, 1)
				continue
			}
			fdct8x8(&res, &coef)
			var zz [64]int32
			zero := true
			for i := 0; i < 64; i++ {
				c := coef[zigzag[i]] / q[zigzag[i]]
				if c >= 0 {
					zz[i] = int32(c + 0.5)
				} else {
					zz[i] = int32(c - 0.5)
				}
				if zz[i] != 0 {
					zero = false
				}
			}
			if zero {
				// Quantisation flattened the residual: still a skip block.
				bw.writeBits(1, 1)
				continue
			}
			bw.writeBits(0, 1)
			bw.writeSE(zz[0])
			encodeAC(bw, zz[1:])
		}
	}
	stream := bw.bytes()
	out := make([]byte, len(stream))
	copy(out, stream)
	writerPool.Put(bw)
	return out
}

// loadResidualBlock fills dst with cur−ref for the 8x8 block at (x0,y0),
// replicating edge pixels like loadBlock so both sides clamp identically.
// It reports whether the residual is exactly zero.
func loadResidualBlock(cur, ref *img.Gray, x0, y0 int, dst *[64]float64) bool {
	zero := true
	if interior(cur.W, cur.H, x0, y0) {
		for y := 0; y < blockSize; y++ {
			d := (*[blockSize]float64)(dst[y*blockSize:])
			r := blockRow(ref, x0, y0, y)
			for x, p := range blockRow(cur, x0, y0, y) {
				d[x] = float64(p) - float64(r[x])
				if d[x] != 0 {
					zero = false
				}
			}
		}
		return zero
	}
	for y := 0; y < blockSize; y++ {
		sy := y0 + y
		if sy >= cur.H {
			sy = cur.H - 1
		}
		for x := 0; x < blockSize; x++ {
			sx := x0 + x
			if sx >= cur.W {
				sx = cur.W - 1
			}
			d := float64(cur.Pix[sy*cur.W+sx]) - float64(ref.Pix[sy*ref.W+sx])
			if d != 0 {
				zero = false
			}
			dst[y*blockSize+x] = d
		}
	}
	return zero
}

// DeltaDecode reconstructs a frame produced by DeltaEncode against the
// same reference raster. The stream's dimensions must match ref's. The
// returned raster comes from the codec's buffer pool (see ReleaseGray).
func DeltaDecode(data []byte, ref *img.Gray) (*img.Gray, error) {
	if ref == nil {
		return nil, errors.New("codec: delta decode without reference")
	}
	br := &bitReader{buf: data}
	q, w, h, err := readHeader(br, versionDelta)
	if err != nil {
		return nil, err
	}
	if w != ref.W || h != ref.H {
		return nil, fmt.Errorf("codec: delta %dx%d against %dx%d reference", w, h, ref.W, ref.H)
	}
	g := getGray(w, h)
	// Start from the reference; only non-skip blocks are rewritten.
	copy(g.Pix, ref.Pix)

	bw64 := blocksAcross(w)
	bh64 := blocksAcross(h)
	var coef, res [64]float64
	for by := 0; by < bh64; by++ {
		for bx := 0; bx < bw64; bx++ {
			skip, err := br.readBits(1)
			if err != nil {
				ReleaseGray(g)
				return nil, err
			}
			if skip == 1 {
				continue
			}
			var zz [64]int32
			dc, err := br.readSE()
			if err != nil {
				ReleaseGray(g)
				return nil, err
			}
			zz[0] = dc
			if err := decodeAC(br, zz[1:]); err != nil {
				ReleaseGray(g)
				return nil, err
			}
			for i := 0; i < 64; i++ {
				coef[zigzag[i]] = float64(zz[i]) * q[zigzag[i]]
			}
			idct8x8(&coef, &res)
			addResidualBlock(g, ref, bx*blockSize, by*blockSize, &res)
		}
	}
	return g, nil
}

// addResidualBlock writes ref+residual clamped to [0,255] for the 8x8
// block at (x0,y0), skipping out-of-bounds padding like storeBlock.
func addResidualBlock(g, ref *img.Gray, x0, y0 int, res *[64]float64) {
	if interior(g.W, g.H, x0, y0) {
		for y := 0; y < blockSize; y++ {
			row, r := blockRow(g, x0, y0, y), blockRow(ref, x0, y0, y)
			for x, v := range (*[blockSize]float64)(res[y*blockSize:]) {
				row[x] = clampPixel(float64(r[x]) + v)
			}
		}
		return
	}
	for y := 0; y < blockSize; y++ {
		sy := y0 + y
		if sy >= g.H {
			continue
		}
		for x := 0; x < blockSize; x++ {
			sx := x0 + x
			if sx >= g.W {
				continue
			}
			g.Pix[sy*g.W+sx] = clampPixel(float64(ref.Pix[sy*ref.W+sx]) + res[y*blockSize+x])
		}
	}
}

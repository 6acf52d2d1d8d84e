// Package codec implements the intra-frame video codec Coterie's server
// uses to pre-encode panoramic far-BE frames before shipping them to
// clients. The paper uses x264 with Constant Rate Factor 25 (§5.1); this
// package is a from-scratch stand-in with the same structure as an H.264
// intra frame: 8x8 block DCT, CRF-controlled quantisation, DC prediction,
// zigzag scan, run-length coding and Exp-Golomb entropy coding.
//
// What matters for reproducing the paper is that encoded size tracks
// content complexity: far-BE frames (near objects removed) compress to a
// fraction of whole-BE frames, which is the source of Coterie's "smaller
// frames" advantage even before caching (Fig. 11, "Coterie w/o cache").
// A real transform codec has that property by construction.
package codec

import (
	"errors"
	"fmt"
	"sync"

	"coterie/internal/img"
)

// DefaultCRF matches the server-side x264 setting in the paper.
const DefaultCRF = 25

const (
	magic = 0xC07E
	// version is the intra-frame stream layout; versionDelta (delta.go)
	// shares the magic, so the version byte doubles as the frame kind and
	// streams stay self-describing.
	version      = 1
	versionDelta = 2
)

// minIntraBlockBits is the cheapest intra block: se(0) for the DC delta and
// the end-of-block code, one bit each.
const minIntraBlockBits = 2

// writerPool recycles bitWriters (and, more importantly, their grown byte
// buffers) across Encode calls: the server pre-encodes every far-BE frame it
// renders, so this is a per-frame allocation on the pipeline's hot path.
var writerPool = sync.Pool{New: func() any { return &bitWriter{} }}

// The decode side pools output rasters the same way the render package
// pools frames: an explicit mutex-guarded freelist (not a sync.Pool) so
// the steady state is deterministic across GC cycles, which the
// allocation-budget test relies on. Callers that never release simply
// allocate a fresh frame per decode, exactly as before.
var (
	grayMu   sync.Mutex
	grayFree []*img.Gray
)

// maxPooledGrays bounds the freelist so a burst of concurrent decodes
// cannot pin an unbounded set of rasters.
const maxPooledGrays = 64

// getGray checks a raster out of the freelist, resizing its pixel buffer
// when the requested dimensions need more room.
func getGray(w, h int) *img.Gray {
	n := w * h
	grayMu.Lock()
	if k := len(grayFree); k > 0 {
		g := grayFree[k-1]
		grayFree = grayFree[:k-1]
		grayMu.Unlock()
		if cap(g.Pix) < n {
			g.Pix = make([]uint8, n)
		}
		g.Pix = g.Pix[:n]
		g.W, g.H = w, h
		return g
	}
	grayMu.Unlock()
	return img.NewGray(w, h)
}

// ReleaseGray returns a frame obtained from Decode or DeltaDecode to the
// codec's buffer pool. The caller must not touch the frame afterwards.
// Releasing nil is a no-op, so callers may release unconditionally.
func ReleaseGray(g *img.Gray) {
	if g == nil {
		return
	}
	grayMu.Lock()
	if len(grayFree) < maxPooledGrays {
		grayFree = append(grayFree, g)
	}
	grayMu.Unlock()
}

// writeHeader writes the header every stream starts with:
// magic(16) / version(8) — the frame kind — / crf(8) / UE(W) / UE(H).
func writeHeader(bw *bitWriter, ver uint64, crf, w, h int) {
	bw.writeBits(magic, 16)
	bw.writeBits(ver, 8)
	bw.writeBits(uint64(uint8(clampCRF(crf))), 8)
	bw.writeUE(uint32(w))
	bw.writeUE(uint32(h))
}

// readHeader parses writeHeader's fields from a stream that must be of
// version ver, refusing dimensions outside (0, 1<<15], and returns the
// stream's quantisation table and dimensions.
func readHeader(br *bitReader, ver uint64) (q *[64]float64, w, h int, err error) {
	m, err := br.readBits(16)
	if err != nil || m != magic {
		return nil, 0, 0, errors.New("codec: bad magic")
	}
	v, err := br.readBits(8)
	if err != nil || v != ver {
		return nil, 0, 0, fmt.Errorf("codec: stream version %d, want %d", v, ver)
	}
	crfBits, err := br.readBits(8)
	if err != nil {
		return nil, 0, 0, err
	}
	w32, err := br.readUE()
	if err != nil {
		return nil, 0, 0, err
	}
	h32, err := br.readUE()
	if err != nil {
		return nil, 0, 0, err
	}
	w, h = int(w32), int(h32)
	if w <= 0 || h <= 0 || w > 1<<15 || h > 1<<15 {
		return nil, 0, 0, fmt.Errorf("codec: implausible dimensions %dx%d", w, h)
	}
	return quantTable(int(crfBits)), w, h, nil
}

// Encode compresses the luma frame at the given CRF (0 near-lossless .. 51
// worst). The output is self-describing and decoded by Decode.
func Encode(g *img.Gray, crf int) []byte {
	q := quantTable(crf)
	bw := writerPool.Get().(*bitWriter)
	bw.reset(g.W * g.H / 8)
	writeHeader(bw, version, crf, g.W, g.H)

	bw64 := blocksAcross(g.W)
	bh64 := blocksAcross(g.H)

	var src, coef [64]float64
	var zz [64]int32
	prevDC := int32(0)
	for by := 0; by < bh64; by++ {
		for bx := 0; bx < bw64; bx++ {
			x0, y0 := bx*blockSize, by*blockSize
			// An interior block whose pixel rows repeat its left
			// neighbour's has that block's coefficients, still in zz. Edge
			// blocks replicate their border, so they are always transformed.
			if bx == 0 || !interior(g.W, g.H, x0, y0) || !repeatsLeft(g, x0, y0) {
				loadBlock(g, x0, y0, &src)
				fdct8x8(&src, &coef)
				// Quantise into zigzag order.
				for i := 0; i < 64; i++ {
					c := coef[zigzag[i]] / q[zigzag[i]]
					if c >= 0 {
						zz[i] = int32(c + 0.5)
					} else {
						zz[i] = int32(c - 0.5)
					}
				}
			}
			// DC prediction from the previous block in scan order.
			dc := zz[0]
			bw.writeSE(dc - prevDC)
			prevDC = dc
			encodeAC(bw, zz[1:])
		}
	}
	// Copy out: the writer's buffer goes back to the pool, so the returned
	// stream must not alias it.
	stream := bw.bytes()
	out := make([]byte, len(stream))
	copy(out, stream)
	writerPool.Put(bw)
	return out
}

// encodeAC writes the 63 AC coefficients as (run, level) pairs terminated
// by an end-of-block marker (run code 0 reserved: we encode run+1, with 0
// meaning EOB).
func encodeAC(bw *bitWriter, ac []int32) {
	run := uint32(0)
	for _, v := range ac {
		if v == 0 {
			run++
			continue
		}
		bw.writeUE(run + 1)
		bw.writeSE(v)
		run = 0
	}
	bw.writeUE(0) // end of block
}

// Decode reconstructs a frame produced by Encode. The returned raster
// comes from the codec's buffer pool; callers done with it may hand it
// back via ReleaseGray to keep the decode path allocation-free, or keep
// it indefinitely.
func Decode(data []byte) (*img.Gray, error) {
	br := &bitReader{buf: data}
	q, w, h, err := readHeader(br, version)
	if err != nil {
		return nil, err
	}
	bw64 := blocksAcross(w)
	bh64 := blocksAcross(h)
	// A dozen header bytes may claim a gigabyte raster: refuse, before
	// allocating, dimensions the rest of the stream cannot fill.
	if bw64*bh64 > br.remaining()/minIntraBlockBits {
		return nil, fmt.Errorf("codec: %dx%d frame in a %d-byte stream", w, h, len(data))
	}
	g := getGray(w, h)
	var coef, pix [64]float64
	var prevZZ [64]int32
	prevDC := int32(0)
	for by := 0; by < bh64; by++ {
		for bx := 0; bx < bw64; bx++ {
			var zz [64]int32
			d, err := br.readSE()
			if err != nil {
				ReleaseGray(g)
				return nil, err
			}
			prevDC += d
			zz[0] = prevDC
			if err := decodeAC(br, zz[1:]); err != nil {
				ReleaseGray(g)
				return nil, err
			}
			// The reconstruction is a pure function of the coefficients: a
			// block that repeats the previous one's stores its pixels again.
			if bx+by == 0 || zz != prevZZ {
				for i := 0; i < 64; i++ {
					coef[zigzag[i]] = float64(zz[i]) * q[zigzag[i]]
				}
				idct8x8(&coef, &pix)
				prevZZ = zz
			}
			storeBlock(g, bx*blockSize, by*blockSize, &pix)
		}
	}
	return g, nil
}

func decodeAC(br *bitReader, ac []int32) error {
	idx := 0
	for {
		runCode, err := br.readUE()
		if err != nil {
			return err
		}
		if runCode == 0 {
			return nil // end of block
		}
		idx += int(runCode) - 1
		if idx >= len(ac) {
			return errors.New("codec: AC run overflows block")
		}
		level, err := br.readSE()
		if err != nil {
			return err
		}
		ac[idx] = level
		idx++
		if idx > len(ac) {
			return errors.New("codec: AC index overflows block")
		}
	}
}

// interior reports whether the 8x8 block at (x0,y0) lies wholly inside a
// w x h raster. All but the last block row and column of a frame do (all
// of them when the size is a multiple of 8), and take the row-slice loops
// below instead of two edge tests per pixel.
func interior(w, h, x0, y0 int) bool { return x0+blockSize <= w && y0+blockSize <= h }

// blockRow returns row y of the interior 8x8 block at (x0,y0).
func blockRow(g *img.Gray, x0, y0, y int) *[blockSize]uint8 {
	return (*[blockSize]uint8)(g.Pix[(y0+y)*g.W+x0:])
}

// repeatsLeft reports whether the interior block at (x0,y0), x0 > 0, has
// the pixel rows of the block to its left.
func repeatsLeft(g *img.Gray, x0, y0 int) bool {
	for y := 0; y < blockSize; y++ {
		if *blockRow(g, x0, y0, y) != *blockRow(g, x0-blockSize, y0, y) {
			return false
		}
	}
	return true
}

// loadBlock copies an 8x8 block (level-shifted by -128) clamping reads at
// the image edge by replicating border pixels.
func loadBlock(g *img.Gray, x0, y0 int, dst *[64]float64) {
	if interior(g.W, g.H, x0, y0) {
		for y := 0; y < blockSize; y++ {
			d := (*[blockSize]float64)(dst[y*blockSize:])
			for x, p := range blockRow(g, x0, y0, y) {
				d[x] = float64(p) - 128
			}
		}
		return
	}
	for y := 0; y < blockSize; y++ {
		sy := y0 + y
		if sy >= g.H {
			sy = g.H - 1
		}
		for x := 0; x < blockSize; x++ {
			sx := x0 + x
			if sx >= g.W {
				sx = g.W - 1
			}
			dst[y*blockSize+x] = float64(g.Pix[sy*g.W+sx]) - 128
		}
	}
}

// clampPixel rounds a reconstructed sample into [0, 255].
func clampPixel(v float64) uint8 {
	if v < 0 {
		v = 0
	}
	if v > 255 {
		v = 255
	}
	return uint8(v + 0.5)
}

func storeBlock(g *img.Gray, x0, y0 int, src *[64]float64) {
	if interior(g.W, g.H, x0, y0) {
		for y := 0; y < blockSize; y++ {
			row := blockRow(g, x0, y0, y)
			for x, v := range (*[blockSize]float64)(src[y*blockSize:]) {
				row[x] = clampPixel(v + 128)
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
			g.Pix[sy*g.W+sx] = clampPixel(src[y*blockSize+x] + 128)
		}
	}
}

func blocksAcross(n int) int { return (n + blockSize - 1) / blockSize }

func clampCRF(crf int) int {
	if crf < 0 {
		return 0
	}
	if crf > 51 {
		return 51
	}
	return crf
}

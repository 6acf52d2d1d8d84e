package codec

import (
	"encoding/binary"
	"errors"
	"math/bits"
)

// bitWriter packs bits most-significant-first into a byte slice.
type bitWriter struct {
	buf  []byte
	cur  uint64 // pending bits in the low nCur positions; higher bits are stale
	nCur uint   // bits currently held in cur (< 8 between calls)
}

// writeBits writes the low n bits of v, most significant first. n <= 56.
func (w *bitWriter) writeBits(v uint64, n uint) {
	w.cur = w.cur<<n | v&(1<<n-1)
	w.nCur += n
	for w.nCur >= 8 {
		w.nCur -= 8
		w.buf = append(w.buf, byte(w.cur>>w.nCur))
	}
}

// reset clears the writer for reuse, keeping the buffer's capacity if it is
// already at least sizeHint bytes.
func (w *bitWriter) reset(sizeHint int) {
	if cap(w.buf) < sizeHint {
		w.buf = make([]byte, 0, sizeHint)
	}
	w.buf = w.buf[:0]
	w.cur, w.nCur = 0, 0
}

// bytes flushes any partial byte (padding with zeros) and returns the
// buffer.
func (w *bitWriter) bytes() []byte {
	if w.nCur > 0 {
		w.buf = append(w.buf, byte(w.cur<<(8-w.nCur)))
		w.cur, w.nCur = 0, 0
	}
	return w.buf
}

// bitReader consumes bits most-significant-first from a byte slice.
type bitReader struct {
	buf []byte
	pos int // bits consumed
}

var (
	errBitUnderflow  = errors.New("codec: bitstream underflow")
	errMalformedCode = errors.New("codec: malformed exp-golomb code")
)

// remaining is the number of bits left to read.
func (r *bitReader) remaining() int { return len(r.buf)*8 - r.pos }

// window returns the next bits of the stream left-aligned in a word: at
// least 57 of them, zero-padded past the end of the buffer.
func (r *bitReader) window() uint64 {
	i := r.pos >> 3
	var w uint64
	if i+8 <= len(r.buf) {
		w = binary.BigEndian.Uint64(r.buf[i:])
	} else {
		for k, b := range r.buf[i:] {
			w |= uint64(b) << (56 - 8*uint(k))
		}
	}
	return w << (uint(r.pos) & 7)
}

// readBits reads n <= 56 bits, most significant first.
func (r *bitReader) readBits(n uint) (uint64, error) {
	if int(n) > r.remaining() {
		return 0, errBitUnderflow
	}
	v := r.window() >> (64 - n)
	r.pos += int(n)
	return v, nil
}

// Exponential-Golomb codes, as used by H.264's CAVLC for header syntax.
// ue(v): unsigned; se(v): signed mapped as 0,-1,1,-2,2,...

func (w *bitWriter) writeUE(v uint32) {
	x := uint64(v) + 1
	n := uint(bits.Len64(x))
	// n-1 leading zeros, then the n-bit value: x itself in 2n-1 bits.
	if 2*n-1 <= 56 {
		w.writeBits(x, 2*n-1)
		return
	}
	w.writeBits(0, n-1)
	w.writeBits(x, n)
}

func (r *bitReader) readUE() (uint32, error) {
	avail := r.remaining()
	zeros := min(bits.LeadingZeros64(r.window()), avail)
	if zeros > 32 {
		return 0, errMalformedCode
	}
	if zeros == avail { // the stream ends before the marker bit
		return 0, errBitUnderflow
	}
	// Past the zeros and the marker; as many value bits follow.
	r.pos += zeros + 1
	rest, err := r.readBits(uint(zeros))
	if err != nil {
		return 0, err
	}
	return uint32((uint64(1)<<uint(zeros) | rest) - 1), nil
}

func (w *bitWriter) writeSE(v int32) {
	var u uint32
	if v > 0 {
		u = uint32(2*v - 1)
	} else {
		u = uint32(-2 * v)
	}
	w.writeUE(u)
}

func (r *bitReader) readSE() (int32, error) {
	u, err := r.readUE()
	if err != nil {
		return 0, err
	}
	if u&1 == 1 {
		return int32(u/2 + 1), nil
	}
	return -int32(u / 2), nil
}

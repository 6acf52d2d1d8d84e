package trace

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"

	"coterie/internal/geom"
)

// The paper records player movement traces during real game play and
// replays them for the caching study and the user study (§4.6, §7.4). This
// file persists traces in a compact binary format so sessions can be
// recorded once and replayed deterministically.

// traceMagic identifies the file format ("CTRC" + version 1).
var traceMagic = [4]byte{'C', 'T', 'R', 1}

// Save writes the trace to w: magic, player id, game name, tick count,
// then one float32 pair per tick.
func (t *Trace) Save(w io.Writer) error {
	if _, err := w.Write(traceMagic[:]); err != nil {
		return err
	}
	if len(t.Game) > 255 {
		return errors.New("trace: game name too long")
	}
	hdr := []byte{byte(t.PlayerID), byte(len(t.Game))}
	if _, err := w.Write(hdr); err != nil {
		return err
	}
	if _, err := io.WriteString(w, t.Game); err != nil {
		return err
	}
	var n [4]byte
	binary.BigEndian.PutUint32(n[:], uint32(len(t.Pos)))
	if _, err := w.Write(n[:]); err != nil {
		return err
	}
	buf := make([]byte, 8)
	for _, p := range t.Pos {
		binary.BigEndian.PutUint32(buf[0:4], math.Float32bits(float32(p.X)))
		binary.BigEndian.PutUint32(buf[4:8], math.Float32bits(float32(p.Z)))
		if _, err := w.Write(buf); err != nil {
			return err
		}
	}
	return nil
}

// Read loads a trace saved by Save.
func Read(r io.Reader) (*Trace, error) {
	var magic [4]byte
	if _, err := io.ReadFull(r, magic[:]); err != nil {
		return nil, fmt.Errorf("trace: reading header: %w", err)
	}
	if magic != traceMagic {
		return nil, errors.New("trace: not a coterie trace file")
	}
	var hdr [2]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	name := make([]byte, hdr[1])
	if _, err := io.ReadFull(r, name); err != nil {
		return nil, err
	}
	var nbuf [4]byte
	if _, err := io.ReadFull(r, nbuf[:]); err != nil {
		return nil, err
	}
	n := binary.BigEndian.Uint32(nbuf[:])
	const maxTicks = 100 * 60 * 60 * TickHz // 100 hours
	if n > maxTicks {
		return nil, fmt.Errorf("trace: implausible tick count %d", n)
	}
	// The count is the file's claim, not yet its content: Pos grows as ticks
	// are read, so a short file cannot ask for more memory than it fills.
	t := &Trace{PlayerID: int(hdr[0]), Game: string(name), Pos: make([]geom.Vec2, 0, min(n, 4096))}
	buf := make([]byte, 8)
	for i := uint32(0); i < n; i++ {
		if _, err := io.ReadFull(r, buf); err != nil {
			return nil, fmt.Errorf("trace: tick %d: %w", i, err)
		}
		t.Pos = append(t.Pos, geom.V2(
			float64(math.Float32frombits(binary.BigEndian.Uint32(buf[0:4]))),
			float64(math.Float32frombits(binary.BigEndian.Uint32(buf[4:8]))),
		))
	}
	return t, nil
}

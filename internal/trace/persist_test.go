package trace

import (
	"bytes"
	"math"
	"runtime"
	"strings"
	"testing"

	"coterie/internal/geom"
)

func TestTraceSaveLoadRoundTrip(t *testing.T) {
	g := build(t, "viking")
	tr := Generate(g, 5, 42)
	tr.PlayerID = 3
	var buf bytes.Buffer
	if err := tr.Save(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.PlayerID != 3 || got.Game != "viking" || got.Len() != tr.Len() {
		t.Fatalf("header mismatch: %+v", got)
	}
	for i := range tr.Pos {
		// float32 storage: positions within 1e-4 m (far below grid step).
		if math.Abs(got.Pos[i].X-tr.Pos[i].X) > 1e-4 || math.Abs(got.Pos[i].Z-tr.Pos[i].Z) > 1e-4 {
			t.Fatalf("tick %d: %v vs %v", i, got.Pos[i], tr.Pos[i])
		}
	}
}

func TestTraceReadRejectsGarbage(t *testing.T) {
	if _, err := Read(strings.NewReader("")); err == nil {
		t.Fatal("empty input accepted")
	}
	if _, err := Read(strings.NewReader("XXXXxxxxxxxx")); err == nil {
		t.Fatal("bad magic accepted")
	}
	// Truncated body.
	g := build(t, "pool")
	tr := Generate(g, 2, 1)
	var buf bytes.Buffer
	if err := tr.Save(&buf); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	if _, err := Read(bytes.NewReader(data[:len(data)/2])); err == nil {
		t.Fatal("truncated trace accepted")
	}
}

// headerBomb is a complete ten-byte header claiming 21,600,000 ticks (100
// hours, the most Read accepts) with none of them present.
var headerBomb = append(traceMagic[:], 0, 0, 0x01, 0x49, 0x97, 0x00)

// readAllocated returns what Read(data) returned and the bytes it allocated.
func readAllocated(data []byte) (*Trace, error, uint64) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	tr, err := Read(bytes.NewReader(data))
	runtime.ReadMemStats(&after)
	return tr, err, after.TotalAlloc - before.TotalAlloc
}

// Regression: the tick count is read before any tick, and Read used to
// allocate for all of it up front — ten bytes asked for 329 MiB.
func TestTraceReadHeaderBombAllocatesLittle(t *testing.T) {
	tr, err, alloc := readAllocated(headerBomb)
	if err == nil {
		t.Fatalf("header-only trace accepted: %d ticks", tr.Len())
	}
	if alloc >= 1<<20 {
		t.Fatalf("Read allocated %d bytes for a %d-byte file", alloc, len(headerBomb))
	}
}

// FuzzRead: malformed input is an error, never a panic and never an
// allocation out of proportion to the input; whatever Read accepts
// round-trips through Save (NaN positions as NaN). `go test` runs the seed corpus only.
func FuzzRead(f *testing.F) {
	for _, tr := range []*Trace{
		{PlayerID: 3, Game: "viking", Pos: []geom.Vec2{geom.V2(1.5, -2), geom.V2(3, 4), geom.V2(1e6, 0)}},
		{PlayerID: 255, Game: strings.Repeat("g", 255), Pos: make([]geom.Vec2, 5000)},
		{},
	} {
		var buf bytes.Buffer
		if err := tr.Save(&buf); err != nil {
			f.Fatal(err)
		}
		data := buf.Bytes()
		f.Add(data)
		f.Add(data[:len(data)/2])
		f.Add(data[:min(len(data), 9)])
	}
	f.Add(headerBomb)
	f.Add(append(traceMagic[:], 0, 0, 0xff, 0xff, 0xff, 0xff)) // beyond maxTicks
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		tr, err, alloc := readAllocated(data)
		// Pos holds 16 bytes per 8 read and append may double it; the rest
		// is the header, the initial capacity and the error.
		if limit := uint64(8*len(data)) + 1<<18; alloc > limit {
			t.Fatalf("Read allocated %d bytes for %d bytes of input (limit %d)", alloc, len(data), limit)
		}
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := tr.Save(&buf); err != nil {
			t.Fatalf("Save of a trace Read accepted: %v", err)
		}
		back, err := Read(&buf)
		if err != nil {
			t.Fatalf("Read of Save's output: %v", err)
		}
		if back.PlayerID != tr.PlayerID || back.Game != tr.Game || back.Len() != tr.Len() {
			t.Fatalf("round trip changed the header: %d %q %d ticks, was %d %q %d",
				back.PlayerID, back.Game, back.Len(), tr.PlayerID, tr.Game, tr.Len())
		}
		for i, p := range tr.Pos {
			if b := back.Pos[i]; (b.X != p.X && p.X == p.X) || (b.Z != p.Z && p.Z == p.Z) {
				t.Fatalf("round trip changed tick %d: %v, was %v", i, b, p)
			}
		}
	})
}

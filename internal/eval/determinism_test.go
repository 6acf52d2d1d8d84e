package eval

import (
	"bytes"
	"flag"
	"fmt"
	"hash/fnv"
	"runtime"
	"strings"
	"testing"
	"time"
)

// sectionDigest is the FNV-64a of one "== name ==" section of generateAll's
// output.
type sectionDigest struct {
	name string
	sum  uint64
}

var update = flag.Bool("update", false, "print the table for sectionDigests instead of comparing against it")

// sectionDigests pins the paper reproduction: FNV-64a of every section
// generateAll prints (header line included, wall-clock columns zeroed), in
// print order. Rule: a PR that changes a digest says, in CHANGES.md, which
// table moved and why; `go test ./internal/eval -run Deterministic -update`
// prints the new table. A byte-identical renderer, codec or cache change
// moves none of them.
var sectionDigests = []sectionDigest{
	{"fig1", 0xa9961c35ff1390a7},
	{"fig2", 0x2455020795a8c1bc},
	{"fig3", 0xcc480dcc10323491},
	{"fig5", 0xcd9413f5b87d6c62},
	{"table3", 0xe97df944d8ad51da},
	{"fig6", 0x2aec58143fea1092},
	{"fig7", 0x65c9ea1876fd5a2a},
	{"table5", 0xfbfb5be48dafb333},
	{"table6", 0xf07d4fbbac9d0c84},
	{"table1", 0xb88a80888f029b4d},
	{"table7", 0x7bf302d9db3c64ba},
	{"fig11", 0x3339e586155b2174},
	{"table8", 0x80396cc892db1340},
	{"table9", 0x0e5e7fa05478603c},
	{"fig12", 0x9e103c9ba4494fb3},
	{"ablation-replacement", 0x03e3e97a24d608be},
	{"ablation-overhear", 0x17eabdc7b333822d},
	{"ablation-prefetch", 0xf918f1e401735084},
}

// generateAll runs every parallelized experiment generator on a fresh lab
// at the given GOMAXPROCS (the fan-out width; restored on return) and
// prints the rows into one buffer. The render resolution is tiny: the
// point is the control flow (prepass order, index-addressed writes,
// reductions), not the figures' fidelity.
func generateAll(t *testing.T, parallel int) []byte {
	t.Helper()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(parallel))
	opts := DefaultOptions()
	opts.Quick = true
	opts.RenderW, opts.RenderH = 64, 32
	l := NewLab(opts)

	var buf bytes.Buffer
	step := func(name string, fn func() error) {
		t.Helper()
		fmt.Fprintf(&buf, "== %s ==\n", name)
		if err := fn(); err != nil {
			t.Fatalf("%s (parallel=%d): %v", name, parallel, err)
		}
	}

	step("fig1", func() error {
		rows, err := l.Fig1()
		if err == nil {
			PrintFig1(&buf, rows)
		}
		return err
	})
	step("fig2", func() error {
		rows, err := l.Fig2()
		if err == nil {
			PrintFig2(&buf, rows)
		}
		return err
	})
	step("fig3", func() error {
		r, err := l.Fig3()
		if err == nil {
			PrintFig3(&buf, r)
		}
		return err
	})
	step("fig5", func() error {
		pts, err := l.Fig5()
		if err == nil {
			PrintFig5(&buf, pts)
		}
		return err
	})
	step("table3", func() error {
		rows, err := l.Table3()
		if err == nil {
			for i := range rows {
				rows[i].ProcTime = time.Duration(0) // wall-clock, not comparable
			}
			PrintTable3(&buf, rows)
		}
		return err
	})
	step("fig6", func() error {
		rows, err := l.Fig6()
		if err == nil {
			PrintFig6(&buf, rows)
		}
		return err
	})
	step("fig7", func() error {
		rows, err := l.Fig7()
		if err == nil {
			PrintFig7(&buf, rows)
		}
		return err
	})
	step("table5", func() error {
		rows, err := l.Table5("viking")
		if err == nil {
			PrintTable5(&buf, rows)
		}
		return err
	})
	step("table6", func() error {
		rows, err := l.Table6()
		if err == nil {
			PrintTable6(&buf, rows)
		}
		return err
	})
	step("table1", func() error {
		rows, err := l.Table1()
		if err == nil {
			PrintTable1(&buf, rows)
		}
		return err
	})
	step("table7", func() error {
		rows, err := l.Table7()
		if err == nil {
			PrintTable7(&buf, rows)
		}
		return err
	})
	step("fig11", func() error {
		rows, err := l.Fig11()
		if err == nil {
			PrintFig11(&buf, rows)
		}
		return err
	})
	step("table8", func() error {
		rows, err := l.Table8()
		if err == nil {
			PrintTable8(&buf, rows)
		}
		return err
	})
	step("table9", func() error {
		rows, err := l.Table9()
		if err == nil {
			PrintTable9(&buf, rows)
		}
		return err
	})
	step("fig12", func() error {
		rows, err := l.Fig12()
		if err == nil {
			PrintFig12(&buf, rows)
		}
		return err
	})
	step("ablation-replacement", func() error {
		r, err := l.ReplacementAblation("viking", 64)
		if err == nil {
			fmt.Fprintf(&buf, "%+v\n", r)
		}
		return err
	})
	step("ablation-overhear", func() error {
		r, err := l.OverhearAblation("viking")
		if err == nil {
			fmt.Fprintf(&buf, "%+v\n", r)
		}
		return err
	})
	step("ablation-prefetch", func() error {
		r, err := l.PrefetchAblation("viking")
		if err == nil {
			fmt.Fprintf(&buf, "%+v\n", r)
		}
		return err
	})
	return buf.Bytes()
}

// TestGeneratorsDeterministicAcrossParallel checks the tentpole invariant:
// every parallelized experiment generator prints byte-identical output
// whether it runs on one worker or eight. Work units are enumerated (and
// all randomness drawn) in a sequential prepass and results land in
// index-addressed slices, so worker count must never leak into the rows.
// The same output is then held to sectionDigests, section by section, so
// the tables themselves cannot move unnoticed either.
func TestGeneratorsDeterministicAcrossParallel(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every generator twice")
	}
	seq := generateAll(t, 1)
	par := generateAll(t, 8)
	if bytes.Equal(seq, par) {
		checkSectionDigests(t, seq)
		return
	}
	// Locate the first differing line for a useful failure message.
	sl := bytes.Split(seq, []byte("\n"))
	pl := bytes.Split(par, []byte("\n"))
	for i := 0; i < len(sl) && i < len(pl); i++ {
		if !bytes.Equal(sl[i], pl[i]) {
			t.Fatalf("output diverges at line %d:\n  1 worker: %s\n  8 workers: %s", i+1, sl[i], pl[i])
		}
	}
	t.Fatalf("output lengths differ: %d vs %d bytes", len(seq), len(par))
}

// checkSectionDigests splits generateAll's output at its "== name ==" lines
// and compares each section's FNV-64a with the pinned table.
func checkSectionDigests(t *testing.T, out []byte) {
	t.Helper()
	var got []sectionDigest
	for _, body := range strings.Split(string(out), "== ")[1:] {
		name, _, _ := strings.Cut(body, " ==\n")
		h := fnv.New64a()
		h.Write([]byte(body))
		got = append(got, sectionDigest{name, h.Sum64()})
	}
	if *update {
		for _, s := range got {
			fmt.Printf("\t{%q, %#016x},\n", s.name, s.sum)
		}
		return
	}
	if len(got) != len(sectionDigests) {
		t.Fatalf("%d sections printed, %d pinned (run with -update)", len(got), len(sectionDigests))
	}
	for i, s := range got {
		if want := sectionDigests[i]; s != want {
			t.Errorf("section %s: digest %#016x, pinned %s %#016x", s.name, s.sum, want.name, want.sum)
		}
	}
}

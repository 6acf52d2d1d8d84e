// Benchtab regenerates the paper's tables and figures from the
// reimplemented system and prints measured values alongside the published
// ones.
//
// Usage:
//
//	benchtab -exp table1,fig11          # specific experiments
//	benchtab -exp all                   # everything (minutes)
//	benchtab -exp all -quick            # reduced sampling (tens of seconds)
//	GOMAXPROCS=4 benchtab               # cap every fan-out at 4 workers
//
// Experiments: table1 fig1 fig2 fig3 fig5 fig6 table3 fig7 fig8 table5
// table6 table7 fig11 table8 table9 fig12 table10 ablations.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"coterie/internal/eval"
	"coterie/internal/plot"
)

// writeChart renders a chart into the plot directory.
func writeChart(dir, name string, c plot.Chart) error {
	svg, err := c.SVG()
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, name), []byte(svg), 0o644)
}

var order = []string{
	"table1", "fig1", "fig2", "fig3", "fig5", "fig6", "table3", "fig7",
	"fig8", "table5", "table6", "table7", "fig11", "table8", "table9",
	"fig12", "table10", "ablations",
}

func main() {
	expFlag := flag.String("exp", "all", "comma-separated experiment ids, or 'all'")
	quick := flag.Bool("quick", false, "reduced sampling for a fast pass")
	seed := flag.Int64("seed", 1, "experiment seed")
	plotDir := flag.String("plots", "", "also write SVG figures into this directory (fig5, fig7, fig11, fig12)")
	flag.Parse()

	opts := eval.DefaultOptions()
	opts.Quick = *quick
	opts.Seed = *seed
	lab := eval.NewLab(opts)

	want := map[string]bool{}
	switch *expFlag {
	case "all":
		for _, e := range order {
			want[e] = true
		}
	default:
		for _, e := range strings.Split(*expFlag, ",") {
			want[strings.TrimSpace(e)] = true
		}
	}

	if *plotDir != "" {
		if err := os.MkdirAll(*plotDir, 0o755); err != nil {
			fmt.Fprintf(os.Stderr, "plots: %v\n", err)
			os.Exit(1)
		}
	}

	for _, e := range order {
		if !want[e] {
			continue
		}
		delete(want, e)
		start := time.Now()
		if err := run(lab, e, *plotDir); err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", e, err)
			os.Exit(1)
		}
		fmt.Printf("[%s completed in %v]\n\n", e, time.Since(start).Round(time.Millisecond))
	}
	for e := range want {
		fmt.Fprintf(os.Stderr, "unknown experiment %q\n", e)
		os.Exit(2)
	}
}

func run(lab *eval.Lab, exp, plotDir string) error {
	w := os.Stdout
	switch exp {
	case "table1":
		rows, err := lab.Table1()
		if err != nil {
			return err
		}
		eval.PrintTable1(w, rows)
	case "fig1":
		rows, err := lab.Fig1()
		if err != nil {
			return err
		}
		eval.PrintFig1(w, rows)
	case "fig2":
		rows, err := lab.Fig2()
		if err != nil {
			return err
		}
		eval.PrintFig2(w, rows)
	case "fig3":
		r, err := lab.Fig3()
		if err != nil {
			return err
		}
		eval.PrintFig3(w, r)
	case "fig5":
		pts, err := lab.Fig5()
		if err != nil {
			return err
		}
		eval.PrintFig5(w, pts)
		if plotDir != "" {
			c := plot.Chart{Title: "Fig 5: far-BE SSIM vs cutoff radius", XLabel: "cutoff radius (m)", YLabel: "SSIM", YMin: 0, YMax: 1.02}
			for i := 0; i < 4; i++ {
				s := plot.Series{Name: fmt.Sprintf("location %d", i+1)}
				for _, p := range pts {
					s.X = append(s.X, p.Radius)
					s.Y = append(s.Y, p.SSIM[i])
				}
				c.Series = append(c.Series, s)
			}
			if err := writeChart(plotDir, "fig5.svg", c); err != nil {
				return err
			}
		}
	case "fig6":
		rows, err := lab.Fig6()
		if err != nil {
			return err
		}
		eval.PrintFig6(w, rows)
	case "table3":
		rows, err := lab.Table3()
		if err != nil {
			return err
		}
		eval.PrintTable3(w, rows)
	case "fig7":
		rows, err := lab.Fig7()
		if err != nil {
			return err
		}
		eval.PrintFig7(w, rows)
		if plotDir != "" {
			c := plot.Chart{
				Title:  "Fig 7: cutoff radius quantiles per game",
				XLabel: "game index (catalog order)", YLabel: "radius (m)",
			}
			p10 := plot.Series{Name: "p10"}
			p50 := plot.Series{Name: "p50"}
			p90 := plot.Series{Name: "p90"}
			for i, r := range rows {
				p10.X = append(p10.X, float64(i))
				p10.Y = append(p10.Y, r.P10)
				p50.X = append(p50.X, float64(i))
				p50.Y = append(p50.Y, r.P50)
				p90.X = append(p90.X, float64(i))
				p90.Y = append(p90.Y, r.P90)
			}
			c.Series = []plot.Series{p10, p50, p90}
			if err := writeChart(plotDir, "fig7.svg", c); err != nil {
				return err
			}
		}
	case "fig8":
		r, err := lab.Fig8()
		if err != nil {
			return err
		}
		eval.PrintFig8(w, r)
	case "table5":
		rows, err := lab.Table5("viking")
		if err != nil {
			return err
		}
		eval.PrintTable5(w, rows)
	case "table6":
		rows, err := lab.Table6()
		if err != nil {
			return err
		}
		eval.PrintTable6(w, rows)
	case "table7":
		rows, err := lab.Table7()
		if err != nil {
			return err
		}
		eval.PrintTable7(w, rows)
	case "fig11":
		rows, err := lab.Fig11()
		if err != nil {
			return err
		}
		eval.PrintFig11(w, rows)
		if plotDir != "" {
			byGame := map[string]*plot.Chart{}
			for _, r := range rows {
				c, ok := byGame[r.Game]
				if !ok {
					c = &plot.Chart{
						Title:  "Fig 11: FPS vs players (" + r.Game + ")",
						XLabel: "players", YLabel: "FPS", YMin: 0, YMax: 65,
					}
					byGame[r.Game] = c
				}
				c.Series = append(c.Series, plot.Series{
					Name: r.System.String(),
					X:    []float64{1, 2, 3, 4},
					Y:    r.FPS[:],
				})
			}
			for game, c := range byGame {
				if err := writeChart(plotDir, "fig11_"+game+".svg", *c); err != nil {
					return err
				}
			}
		}
	case "table8":
		rows, err := lab.Table8()
		if err != nil {
			return err
		}
		eval.PrintTable8(w, rows)
	case "table9":
		rows, err := lab.Table9()
		if err != nil {
			return err
		}
		eval.PrintTable9(w, rows)
	case "fig12":
		rows, err := lab.Fig12()
		if err != nil {
			return err
		}
		eval.PrintFig12(w, rows)
		if plotDir != "" {
			for _, r := range rows {
				if r.Players != 4 || len(r.Series) == 0 {
					continue
				}
				c := plot.Chart{
					Title:  fmt.Sprintf("Fig 12: Coterie resources over time (%s, %dP)", r.Game, r.Players),
					XLabel: "time (s)", YLabel: "% / W / C", YMin: 0, YMax: 100,
				}
				cpu := plot.Series{Name: "CPU %"}
				gpu := plot.Series{Name: "GPU %"}
				temp := plot.Series{Name: "SoC temp (C)"}
				pw := plot.Series{Name: "power (W x10)"}
				// Decimate long runs to ~180 points per curve.
				stride := len(r.Series)/180 + 1
				for i := 0; i < len(r.Series); i += stride {
					p := r.Series[i]
					x := float64(p.Sec)
					cpu.X = append(cpu.X, x)
					cpu.Y = append(cpu.Y, p.CPUPct)
					gpu.X = append(gpu.X, x)
					gpu.Y = append(gpu.Y, p.GPUPct)
					temp.X = append(temp.X, x)
					temp.Y = append(temp.Y, p.TempC)
					pw.X = append(pw.X, x)
					pw.Y = append(pw.Y, p.PowerW*10)
				}
				c.Series = []plot.Series{cpu, gpu, temp, pw}
				if err := writeChart(plotDir, "fig12_"+r.Game+".svg", c); err != nil {
					return err
				}
			}
		}
	case "table10":
		r, err := lab.Table10()
		if err != nil {
			return err
		}
		eval.PrintTable10(w, r)
	case "ablations":
		ra, err := lab.ReplacementAblation("viking", 24)
		if err != nil {
			return err
		}
		eval.PrintReplacementAblation(w, ra)
		ca, err := lab.CutoffAblation("viking")
		if err != nil {
			return err
		}
		eval.PrintCutoffAblation(w, ca)
		la, err := lab.LookupAblation("viking")
		if err != nil {
			return err
		}
		eval.PrintLookupAblation(w, la)
		pa, err := lab.PrefetchAblation("viking")
		if err != nil {
			return err
		}
		eval.PrintPrefetchAblation(w, pa)
		oa, err := lab.OverhearAblation("viking")
		if err != nil {
			return err
		}
		eval.PrintOverhearAblation(w, oa)
	default:
		return fmt.Errorf("unknown experiment %q", exp)
	}
	return nil
}

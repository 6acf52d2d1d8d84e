package plot

import (
	"strings"
	"testing"
)

func TestChartSVG(t *testing.T) {
	c := Chart{
		Title:  "FPS vs players",
		XLabel: "players",
		YLabel: "FPS",
		Series: []Series{
			{Name: "Coterie", X: []float64{1, 2, 3, 4}, Y: []float64{60, 60, 59, 59}},
			{Name: "Multi-Furion", X: []float64{1, 2, 3, 4}, Y: []float64{60, 47, 33, 25}},
		},
		YMin: 0, YMax: 65,
	}
	svg, err := c.SVG()
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"<svg", "polyline", "Coterie", "Multi-Furion", "FPS vs players", "</svg>"} {
		if !strings.Contains(svg, want) {
			t.Fatalf("SVG missing %q", want)
		}
	}
	if strings.Count(svg, "<polyline") != 2 {
		t.Fatal("expected two series lines")
	}
}

func TestChartErrors(t *testing.T) {
	if _, err := (Chart{Title: "empty"}).SVG(); err == nil {
		t.Fatal("empty chart accepted")
	}
	c := Chart{Series: []Series{{Name: "bad", X: []float64{1}, Y: []float64{}}}}
	if _, err := c.SVG(); err == nil {
		t.Fatal("mismatched series accepted")
	}
	c = Chart{Series: []Series{{Name: "empty"}}}
	if _, err := c.SVG(); err == nil {
		t.Fatal("empty series accepted")
	}
}

func TestChartDegenerateRanges(t *testing.T) {
	// Constant series must not divide by zero.
	c := Chart{Series: []Series{{Name: "flat", X: []float64{1, 2}, Y: []float64{5, 5}}}}
	if _, err := c.SVG(); err != nil {
		t.Fatal(err)
	}
	c = Chart{Series: []Series{{Name: "point", X: []float64{3}, Y: []float64{7}}}}
	if _, err := c.SVG(); err != nil {
		t.Fatal(err)
	}
}

func TestEscape(t *testing.T) {
	c := Chart{
		Title:  `a<b>&"c"`,
		Series: []Series{{Name: "s", X: []float64{1}, Y: []float64{1}}},
	}
	svg, err := c.SVG()
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(svg, `a<b>`) {
		t.Fatal("title not escaped")
	}
}

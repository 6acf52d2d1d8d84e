// Package plot renders minimal, dependency-free SVG charts for the
// experiment harness: line charts for the similarity, distribution and
// resource figures.
// cmd/benchtab uses it to write figure files next to the printed tables.
package plot

import (
	"fmt"
	"math"
	"strings"
)

// Series is one named line on a chart.
type Series struct {
	Name string
	X    []float64
	Y    []float64
}

// Chart describes a line chart.
type Chart struct {
	Title  string
	XLabel string
	YLabel string
	Series []Series
	// YMin/YMax fix the y-range; when both are zero the range is derived
	// from the data with a small margin.
	YMin, YMax float64
}

const (
	width   = 640
	height  = 400
	marginL = 62
	marginR = 20
	marginT = 40
	marginB = 48
)

// palette holds distinguishable stroke colours.
var palette = []string{"#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b"}

// SVG renders the chart.
func (c Chart) SVG() (string, error) {
	if len(c.Series) == 0 {
		return "", fmt.Errorf("plot: chart %q has no series", c.Title)
	}
	xmin, xmax := math.Inf(1), math.Inf(-1)
	ymin, ymax := math.Inf(1), math.Inf(-1)
	for _, s := range c.Series {
		if len(s.X) != len(s.Y) {
			return "", fmt.Errorf("plot: series %q has %d x values and %d y values", s.Name, len(s.X), len(s.Y))
		}
		if len(s.X) == 0 {
			return "", fmt.Errorf("plot: series %q is empty", s.Name)
		}
		for i := range s.X {
			xmin = math.Min(xmin, s.X[i])
			xmax = math.Max(xmax, s.X[i])
			ymin = math.Min(ymin, s.Y[i])
			ymax = math.Max(ymax, s.Y[i])
		}
	}
	if c.YMin != 0 || c.YMax != 0 {
		ymin, ymax = c.YMin, c.YMax
	} else {
		pad := (ymax - ymin) * 0.08
		if pad == 0 {
			pad = 1
		}
		ymin -= pad
		ymax += pad
	}
	if xmax == xmin {
		xmax = xmin + 1
	}
	if ymax == ymin {
		ymax = ymin + 1
	}

	px := func(x float64) float64 {
		return marginL + (x-xmin)/(xmax-xmin)*(width-marginL-marginR)
	}
	py := func(y float64) float64 {
		return height - marginB - (y-ymin)/(ymax-ymin)*(height-marginT-marginB)
	}

	var b strings.Builder
	fmt.Fprintf(&b, `<svg xmlns="http://www.w3.org/2000/svg" width="%d" height="%d" font-family="sans-serif">`, width, height)
	fmt.Fprintf(&b, `<rect width="%d" height="%d" fill="white"/>`, width, height)
	fmt.Fprintf(&b, `<text x="%d" y="22" font-size="15" font-weight="bold">%s</text>`, marginL, escape(c.Title))

	// Axes.
	fmt.Fprintf(&b, `<line x1="%d" y1="%d" x2="%d" y2="%d" stroke="black"/>`,
		marginL, height-marginB, width-marginR, height-marginB)
	fmt.Fprintf(&b, `<line x1="%d" y1="%d" x2="%d" y2="%d" stroke="black"/>`,
		marginL, marginT, marginL, height-marginB)
	fmt.Fprintf(&b, `<text x="%d" y="%d" font-size="12" text-anchor="middle">%s</text>`,
		(marginL+width-marginR)/2, height-10, escape(c.XLabel))
	fmt.Fprintf(&b, `<text x="16" y="%d" font-size="12" transform="rotate(-90 16 %d)" text-anchor="middle">%s</text>`,
		(marginT+height-marginB)/2, (marginT+height-marginB)/2, escape(c.YLabel))

	// Ticks: 5 per axis.
	for i := 0; i <= 4; i++ {
		xv := xmin + (xmax-xmin)*float64(i)/4
		yv := ymin + (ymax-ymin)*float64(i)/4
		fmt.Fprintf(&b, `<text x="%.1f" y="%d" font-size="10" text-anchor="middle">%s</text>`,
			px(xv), height-marginB+16, tick(xv))
		fmt.Fprintf(&b, `<text x="%d" y="%.1f" font-size="10" text-anchor="end">%s</text>`,
			marginL-6, py(yv)+3, tick(yv))
		fmt.Fprintf(&b, `<line x1="%d" y1="%.1f" x2="%d" y2="%.1f" stroke="#dddddd"/>`,
			marginL, py(yv), width-marginR, py(yv))
	}

	// Series lines + legend.
	for si, s := range c.Series {
		color := palette[si%len(palette)]
		var pts []string
		for i := range s.X {
			pts = append(pts, fmt.Sprintf("%.1f,%.1f", px(s.X[i]), py(s.Y[i])))
		}
		fmt.Fprintf(&b, `<polyline fill="none" stroke="%s" stroke-width="2" points="%s"/>`,
			color, strings.Join(pts, " "))
		for i := range s.X {
			fmt.Fprintf(&b, `<circle cx="%.1f" cy="%.1f" r="3" fill="%s"/>`, px(s.X[i]), py(s.Y[i]), color)
		}
		ly := marginT + 16*si
		fmt.Fprintf(&b, `<line x1="%d" y1="%d" x2="%d" y2="%d" stroke="%s" stroke-width="2"/>`,
			width-marginR-150, ly, width-marginR-130, ly, color)
		fmt.Fprintf(&b, `<text x="%d" y="%d" font-size="11">%s</text>`,
			width-marginR-124, ly+4, escape(s.Name))
	}
	b.WriteString(`</svg>`)
	return b.String(), nil
}

func tick(v float64) string {
	av := math.Abs(v)
	switch {
	case av >= 100:
		return fmt.Sprintf("%.0f", v)
	case av >= 1:
		return fmt.Sprintf("%.1f", v)
	default:
		return fmt.Sprintf("%.2f", v)
	}
}

func escape(s string) string {
	r := strings.NewReplacer("&", "&amp;", "<", "&lt;", ">", "&gt;", `"`, "&quot;")
	return r.Replace(s)
}

// Package render emits the paper's heatmaps (Figs. 14–16) and series data
// as PNG, PGM and CSV using only the standard library. Grids are expected
// normalized to [0, 1] (1 = maximum utilization, as in the paper's color
// scale); out-of-range values are clamped.
package render

import (
	"fmt"
	"image"
	"image/color"
	"image/png"
	"io"

	"pimendure/internal/stats"
)

// heatStop is one anchor of the color ramp.
type heatStop struct {
	v       float64
	r, g, b uint8
}

// heatRamp approximates the dark-blue → green → yellow ramp used for
// write-density heatmaps: cold cells dark, hot cells bright.
var heatRamp = []heatStop{
	{0.00, 13, 8, 135},
	{0.25, 84, 2, 163},
	{0.50, 186, 55, 107},
	{0.75, 251, 140, 41},
	{1.00, 240, 249, 33},
}

// HeatColor maps a normalized value to the ramp, clamping to [0, 1].
func HeatColor(v float64) color.RGBA {
	if v < 0 {
		v = 0
	}
	if v > 1 {
		v = 1
	}
	for i := 1; i < len(heatRamp); i++ {
		lo, hi := heatRamp[i-1], heatRamp[i]
		if v <= hi.v {
			t := (v - lo.v) / (hi.v - lo.v)
			lerp := func(a, b uint8) uint8 { return uint8(float64(a) + t*(float64(b)-float64(a)) + 0.5) }
			return color.RGBA{R: lerp(lo.r, hi.r), G: lerp(lo.g, hi.g), B: lerp(lo.b, hi.b), A: 255}
		}
	}
	last := heatRamp[len(heatRamp)-1]
	return color.RGBA{R: last.r, G: last.g, B: last.b, A: 255}
}

// HeatmapPNG writes the grid as a PNG, each cell scaled to scale×scale
// pixels.
func HeatmapPNG(w io.Writer, g *stats.Grid, scale int) error {
	if scale < 1 {
		return fmt.Errorf("render: scale must be ≥ 1, got %d", scale)
	}
	if g.Rows == 0 || g.Cols == 0 {
		return fmt.Errorf("render: empty grid")
	}
	img := image.NewRGBA(image.Rect(0, 0, g.Cols*scale, g.Rows*scale))
	for r := 0; r < g.Rows; r++ {
		for c := 0; c < g.Cols; c++ {
			col := HeatColor(g.At(r, c))
			for dy := 0; dy < scale; dy++ {
				for dx := 0; dx < scale; dx++ {
					img.SetRGBA(c*scale+dx, r*scale+dy, col)
				}
			}
		}
	}
	return png.Encode(w, img)
}

// HeatmapPGM writes the grid as a plain-text (P2) PGM grayscale image —
// easily diffable and viewable without tooling.
func HeatmapPGM(w io.Writer, g *stats.Grid) error {
	if g.Rows == 0 || g.Cols == 0 {
		return fmt.Errorf("render: empty grid")
	}
	if _, err := fmt.Fprintf(w, "P2\n%d %d\n255\n", g.Cols, g.Rows); err != nil {
		return err
	}
	for r := 0; r < g.Rows; r++ {
		for c := 0; c < g.Cols; c++ {
			v := g.At(r, c)
			if v < 0 {
				v = 0
			}
			if v > 1 {
				v = 1
			}
			sep := " "
			if c == g.Cols-1 {
				sep = "\n"
			}
			if _, err := fmt.Fprintf(w, "%d%s", int(v*255+0.5), sep); err != nil {
				return err
			}
		}
	}
	return nil
}

// SeriesCSV writes aligned series as a CSV with a header row. All columns
// must have equal length.
func SeriesCSV(w io.Writer, headers []string, cols ...[]float64) error {
	if len(headers) != len(cols) {
		return fmt.Errorf("render: %d headers for %d columns", len(headers), len(cols))
	}
	if len(cols) == 0 {
		return fmt.Errorf("render: no columns")
	}
	n := len(cols[0])
	for _, c := range cols {
		if len(c) != n {
			return fmt.Errorf("render: ragged columns")
		}
	}
	for i, h := range headers {
		sep := ","
		if i == len(headers)-1 {
			sep = "\n"
		}
		if _, err := fmt.Fprintf(w, "%s%s", h, sep); err != nil {
			return err
		}
	}
	for r := 0; r < n; r++ {
		for i := range cols {
			sep := ","
			if i == len(cols)-1 {
				sep = "\n"
			}
			if _, err := fmt.Fprintf(w, "%g%s", cols[i][r], sep); err != nil {
				return err
			}
		}
	}
	return nil
}

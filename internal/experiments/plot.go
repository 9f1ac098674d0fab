package experiments

import (
	"fmt"
	"io"
	"math"
	"strings"
)

// PlotSeries is one curve of an ASCII plot.
type PlotSeries struct {
	Name   string
	Marker byte
	// Points maps x to y; series may cover different x sets.
	Points map[int]float64
}

// Plot is a report part that draws curves on a character grid with a
// log-scaled y axis — enough to eyeball the shape of Figure 2 in a
// terminal. Points that share a cell keep the first series' marker.
type Plot struct {
	Title  string
	Series []PlotSeries
	// Height is the grid's row count (default 20).
	Height int
}

// WriteText draws the plot; a plot without points is an error.
func (p Plot) WriteText(w io.Writer) error {
	height := p.Height
	if height <= 0 {
		height = 20
	}
	minX, maxX := math.MaxInt, math.MinInt
	minY, maxY := math.Inf(1), math.Inf(-1)
	for _, s := range p.Series {
		for x, y := range s.Points {
			minX, maxX, maxY = min(minX, x), max(maxX, x), max(maxY, y)
			if y > 0 {
				minY = min(minY, y)
			}
		}
	}
	if maxX < minX || maxY <= 0 {
		return fmt.Errorf("plot: no points")
	}
	if minY <= 0 || minY == math.Inf(1) {
		minY = 1
	}
	logMin, logMax := math.Log(minY), math.Log(maxY)
	if logMax-logMin < 1e-9 {
		logMax = logMin + 1
	}
	width := maxX - minX + 1
	grid := make([][]byte, height)
	for r := range grid {
		grid[r] = []byte(strings.Repeat(" ", width))
	}
	for _, s := range p.Series {
		for x, y := range s.Points {
			frac := (math.Log(max(y, minY)) - logMin) / (logMax - logMin)
			r := height - 1 - int(math.Round(frac*float64(height-1))) // row 0 is the top
			if c := x - minX; grid[r][c] == ' ' {
				grid[r][c] = s.Marker
			}
		}
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s\n(log-scale y: %.1f .. %.1f)\n\n", p.Title, minY, maxY)
	for _, line := range grid {
		fmt.Fprintf(&sb, "  |%s\n", line)
	}
	fmt.Fprintf(&sb, "  +%s\n   k=%d%sk=%d\n", strings.Repeat("-", width), minX, strings.Repeat(" ", max(1, width-6)), maxX)
	for _, s := range p.Series {
		fmt.Fprintf(&sb, "   %c = %s\n", s.Marker, s.Name)
	}
	_, err := io.WriteString(w, sb.String())
	return err
}

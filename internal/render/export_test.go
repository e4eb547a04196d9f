package render

import (
	"fmt"
	"io"

	"pimendure/internal/stats"
)

// Helpers that only this package's tests use.

// GridCSV writes the grid as comma-separated rows.
func GridCSV(w io.Writer, g *stats.Grid) error {
	for r := 0; r < g.Rows; r++ {
		for c := 0; c < g.Cols; c++ {
			sep := ","
			if c == g.Cols-1 {
				sep = "\n"
			}
			if _, err := fmt.Fprintf(w, "%g%s", g.At(r, c), sep); err != nil {
				return err
			}
		}
	}
	return nil
}

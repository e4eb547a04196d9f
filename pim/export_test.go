package pim

import (
	"io"

	"pimendure/internal/traceio"
)

// Helpers that only this package's tests use.

// SaveTrace serializes a benchmark's compiled trace (versioned JSON).
func SaveTrace(w io.Writer, b *Benchmark) error { return traceio.WriteTrace(w, b.Trace) }

package workloads

import "pimendure/internal/synth"

// Helpers that only this package's tests use.

// Default returns the paper's evaluation configuration (§4).
func Default() Config {
	return Config{Lanes: 1024, Rows: 1024, Basis: synth.NAND}
}

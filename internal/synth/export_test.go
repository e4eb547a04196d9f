package synth

import (
	"pimendure/internal/program"
)

// Helpers that only this package's tests use.

// MultiplierCounts builds a b-bit Dadda multiplier on a scratch lane and
// returns its adder-cell composition. Used to verify the b²−2b / b / b²
// identity from the paper.
func MultiplierCounts(basis Basis, b int) CircuitCounts {
	cb := &countingBasis{inner: basis}
	bld := program.NewBuilder(1, 1<<20)
	x := bld.AllocN(b)
	y := bld.AllocN(b)
	Dadda(bld, cb, x, y)
	return cb.counts
}

// DoubleNotVector is the fallback for architectures without a native COPY
// (§3.2 footnote 5): two sequential NOT gates per bit.
func DoubleNotVector(bld *program.Builder, src []program.Bit) []program.Bit {
	dst := make([]program.Bit, len(src))
	for i, s := range src {
		inv := bld.Not(s)
		dst[i] = bld.Not(inv)
		bld.Free(inv)
	}
	return dst
}

package baseline

import (
	"fmt"
	"math/rand"
)

// Helpers that only this package's tests use.

// ConvAdd is a b-bit addition: read two operands, write the (b+1)-bit sum.
func ConvAdd(bits int) OpCost {
	return OpCost{CellReads: 2 * bits, CellWrites: bits + 1}
}

// ConvDotProduct is an n-element b-bit dot product on a conventional
// architecture: n multiplies plus n−1 accumulating adds of the (growing)
// partial sum, counting only memory traffic (operands in, final result
// out; the running sum stays in registers). Reads: 2nb. Writes: the final
// scalar, 2b + log₂n bits.
func ConvDotProduct(n, bits int) OpCost {
	width := 2 * bits
	for m := 1; m < n; m *= 2 {
		width++
	}
	return OpCost{CellReads: 2 * n * bits, CellWrites: width}
}

// Scale multiplies a cost n times.
func (c OpCost) Scale(n int) OpCost {
	return OpCost{CellReads: c.CellReads * n, CellWrites: c.CellWrites * n}
}

// RandomizedCheck exercises the leveler with a random workload and
// verifies every read returns the last value written to that logical line.
// It returns the first inconsistency.
func RandomizedCheck(n, gapInterval, ops int, seed int64) error {
	s, err := NewStartGap(n, gapInterval)
	if err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(seed))
	shadow := make([]uint64, n)
	for i := 0; i < ops; i++ {
		la := rng.Intn(n)
		if rng.Intn(2) == 0 {
			v := rng.Uint64()
			s.Write(la, v)
			shadow[la] = v
		} else if got := s.Read(la); got != shadow[la] {
			return fmt.Errorf("baseline: line %d read %d, want %d (op %d)", la, got, shadow[la], i)
		}
	}
	return nil
}

// Registers exposes the two-register state (start, gap) for inspection.
func (s *StartGap) Registers() (start, gap int) { return s.start, s.gap }

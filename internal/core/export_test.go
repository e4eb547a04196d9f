package core

// Helpers that only this package's tests use. The plan views expose the
// factorized write matrix, which the engines read field by field, for
// plan_test.go's cross-check against a dense build.

// FullRowWrites returns the between-invariant part of the one-iteration
// write matrix: parallel slices of logical rows receiving full-mask
// writes and the summed per-lane write count of each.
func (p *WearPlan) FullRowWrites() (rows []int32, writes []uint32) {
	return p.fullRowIdx, p.fullRowW
}

// PartialEntries returns the number of nonzero (row, lane) entries in the
// CSR-packed partial-mask part of the write matrix.
func (p *WearPlan) PartialEntries() int { return len(p.csrLane) }

// M0 materializes the dense one-iteration write matrix [row*Lanes+lane]
// from the factorized plan — the matrix the pre-plan software engine
// rebuilt on every run.
func (p *WearPlan) M0() []uint32 {
	lanes := p.trace.Lanes
	m0 := make([]uint32, p.trace.LaneBits*lanes)
	for i, r := range p.fullRowIdx {
		base := int(r) * lanes
		for l := 0; l < lanes; l++ {
			m0[base+l] += p.fullRowW[i]
		}
	}
	for i, r := range p.csrRows {
		base := int(r) * lanes
		for e := p.csrPtr[i]; e < p.csrPtr[i+1]; e++ {
			m0[base+int(p.csrLane[e])] += p.csrCnt[e]
		}
	}
	return m0
}

// MaxPerIteration returns the hottest cell's writes per benchmark
// iteration. A distribution with no recorded iterations (a fresh
// NewWriteDist, or a zero-iteration file read back through traceio)
// reports 0 rather than +Inf/NaN.
func (d *WriteDist) MaxPerIteration() float64 {
	if d.Iterations <= 0 {
		return 0
	}
	return float64(d.Max()) / float64(d.Iterations)
}

// Epoch returns the next epoch index — the number of Step calls so far.
func (s *Stepper) Epoch() int { return len(s.walk.lens) }

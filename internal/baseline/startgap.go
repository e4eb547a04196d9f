package baseline

import (
	"fmt"
)

// StartGap is the classic low-overhead wear-leveling scheme for standard
// NVM (Qureshi et al. [27]): N logical lines live in N+1 physical lines;
// a roving gap line absorbs locality by shifting every line one slot over
// a full rotation, using only two registers (start, gap) for the address
// algebra instead of a remap table.
//
// The paper's §3.2 explains why this style of per-line remapping cannot be
// applied to PIM; it is implemented here as the standard-memory baseline
// and used by the Fig. 6 demonstration.
type StartGap struct {
	n     int
	start int
	gap   int
	// GapInterval is ψ: the gap moves one slot every ψ writes.
	gapInterval int
	writesSince int
	lines       []uint64 // physical storage, n+1 lines
	writeCounts []uint64 // physical per-line write counts
}

// NewStartGap returns a leveler over n logical lines moving the gap every
// gapInterval writes (ψ=100 in [27]).
func NewStartGap(n, gapInterval int) (*StartGap, error) {
	if n < 1 {
		return nil, fmt.Errorf("baseline: need at least 1 line, got %d", n)
	}
	if gapInterval < 1 {
		return nil, fmt.Errorf("baseline: gap interval must be ≥ 1, got %d", gapInterval)
	}
	return &StartGap{
		n:           n,
		gap:         n, // gap starts at the spare top line
		gapInterval: gapInterval,
		lines:       make([]uint64, n+1),
		writeCounts: make([]uint64, n+1),
	}, nil
}

// PhysAddr translates a logical line address using the Start-Gap algebra:
// PA = (LA + start) mod N, incremented by one if it is at or past the gap.
func (s *StartGap) PhysAddr(la int) int {
	if la < 0 || la >= s.n {
		panic(fmt.Sprintf("baseline: logical address %d out of range [0,%d)", la, s.n))
	}
	pa := (la + s.start) % s.n
	if pa >= s.gap {
		pa++
	}
	return pa
}

// Read returns the value of a logical line.
func (s *StartGap) Read(la int) uint64 { return s.lines[s.PhysAddr(la)] }

// Write stores a value to a logical line and advances the gap after every
// GapInterval writes.
func (s *StartGap) Write(la int, v uint64) {
	pa := s.PhysAddr(la)
	s.lines[pa] = v
	s.writeCounts[pa]++
	s.writesSince++
	if s.writesSince >= s.gapInterval {
		s.writesSince = 0
		s.moveGap()
	}
}

// moveGap shifts the gap one slot down, copying the displaced line into the
// old gap. When the gap reaches the bottom it wraps: the top physical line
// moves into slot 0, the gap teleports to the top, and the start register
// advances — completing one rotation step of the whole array.
func (s *StartGap) moveGap() {
	if s.gap == 0 {
		s.lines[0] = s.lines[s.n]
		s.writeCounts[0]++
		s.gap = s.n
		s.start = (s.start + 1) % s.n
		return
	}
	s.lines[s.gap] = s.lines[s.gap-1]
	s.writeCounts[s.gap]++ // the copy is a real write
	s.gap--
}

// WriteCounts returns a copy of the physical per-line write counts.
func (s *StartGap) WriteCounts() []uint64 {
	out := make([]uint64, len(s.writeCounts))
	copy(out, s.writeCounts)
	return out
}

// HotLineImbalance measures max/mean physical write counts after issuing
// `writes` stores that all target logical line 0 — the adversarial
// hot-line workload Start-Gap is designed to survive. Useful as a baseline
// against the PIM distributions.
func HotLineImbalance(n, gapInterval, writes int) (float64, error) {
	s, err := NewStartGap(n, gapInterval)
	if err != nil {
		return 0, err
	}
	for i := 0; i < writes; i++ {
		s.Write(0, uint64(i))
	}
	counts := s.WriteCounts()
	var max, sum uint64
	for _, c := range counts {
		if c > max {
			max = c
		}
		sum += c
	}
	if sum == 0 {
		return 0, nil
	}
	mean := float64(sum) / float64(len(counts))
	return float64(max) / mean, nil
}

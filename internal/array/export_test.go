package array

// Helpers that only this package's tests use.

// ResetCounters clears access counters but keeps cell state. Deferred
// packed-runner counts are discarded along with the materialized ones.
func (a *Array) ResetCounters() {
	a.Flush()
	for i := range a.writes {
		a.writes[i] = 0
		a.reads[i] = 0
	}
}

// TotalReads sums read counts over all cells.
func (a *Array) TotalReads() uint64 {
	a.Flush()
	var n uint64
	for _, r := range a.reads {
		n += r
	}
	return n
}

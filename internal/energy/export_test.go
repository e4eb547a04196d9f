package energy

// Helpers that only this package's tests use.

// ToFailure returns the total energy an array dissipates before its first
// cell fails: energy per iteration × iterations-to-failure.
func ToFailure(perIteration Breakdown, iterationsToFailure float64) float64 {
	return perIteration.Total() * iterationsToFailure
}

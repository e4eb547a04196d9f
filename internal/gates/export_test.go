package gates

// Helpers that only this package's tests use.

// IsUniversal reports whether the given set of gate kinds is functionally
// complete (can synthesize any Boolean function). It checks the classical
// criteria: the set must contain a gate that is not monotone-preserving in
// a way that allows inversion, which for this small catalogue reduces to
// containing NAND or NOR, or containing NOT (or an inverting two-input
// gate) together with AND or OR.
func IsUniversal(set []Kind) bool {
	have := map[Kind]bool{}
	for _, k := range set {
		have[k] = true
	}
	if have[NAND] || have[NOR] {
		return true
	}
	return have[NOT] && (have[AND] || have[OR])
}

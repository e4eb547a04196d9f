package mapping

// Helpers that only this package's tests use.

// AtReset reports whether the renamer is in its Reset state (identity
// mapping, top row spare). After replaying one full renamer period the
// state must have closed its cycle, which the tests assert.
func (h *HwRenamer) AtReset() bool {
	if h.free != int32(h.rows-1) {
		return false
	}
	for i, p := range h.a2p {
		if p != int32(i) {
			return false
		}
	}
	return true
}

// StateFingerprint returns a 64-bit FNV-1a hash of the full renamer state
// (mapping plus free row). Equal states share a fingerprint; tests use it
// to detect state recurrence cheaply.
func (h *HwRenamer) StateFingerprint() uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	fp := uint64(offset64)
	for _, p := range h.a2p {
		fp ^= uint64(uint32(p))
		fp *= prime64
	}
	fp ^= uint64(uint32(h.free))
	fp *= prime64
	return fp
}

// ShiftPerm returns the rotation i → (i + k) mod n.
func ShiftPerm(n, k int) *Perm {
	p := &Perm{l2p: make([]int32, n)}
	k = ((k % n) + n) % n
	for i := range p.l2p {
		p.l2p[i] = int32((i + k) % n)
	}
	return p
}

// Inverse returns the physical-to-logical inverse permutation.
func (p *Perm) Inverse() *Perm {
	inv := &Perm{l2p: make([]int32, len(p.l2p))}
	for l, ph := range p.l2p {
		inv.l2p[ph] = int32(l)
	}
	return inv
}

// IsBijection verifies the permutation hits every address exactly once.
func (p *Perm) IsBijection() bool {
	seen := make([]bool, len(p.l2p))
	for _, ph := range p.l2p {
		if ph < 0 || int(ph) >= len(p.l2p) || seen[ph] {
			return false
		}
		seen[ph] = true
	}
	return true
}

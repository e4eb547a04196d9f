package program

// Helpers that only this package's tests use.

// Clear removes lane i.
func (m *Mask) Clear(i int) {
	m.check(i)
	w, b := i/64, uint(i%64)
	if m.words[w]&(1<<b) != 0 {
		m.words[w] &^= 1 << b
		m.count--
	}
}

// MaxLive returns the high-water mark of simultaneously allocated bits
// (the minimum workspace a lane must provide).
func (b *Builder) MaxLive() int { return b.maxLive }

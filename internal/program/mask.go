package program

import (
	"fmt"
	"math/bits"
	"strings"
)

// Mask is a set of lanes (columns in a column-parallel architecture, rows in
// a row-parallel one) that participate in an operation. PIM operations are
// SIMD across lanes: one gate executes simultaneously in every lane of the
// mask, at the same bit addresses (§2.2 of the paper).
type Mask struct {
	words []uint64
	n     int
	count int
}

// NewMask returns an empty mask over n lanes.
func NewMask(n int) *Mask {
	if n < 0 {
		panic("program: negative mask size")
	}
	return &Mask{words: make([]uint64, (n+63)/64), n: n}
}

// FullMask returns a mask with all n lanes set.
func FullMask(n int) *Mask {
	m := NewMask(n)
	for i := 0; i < n; i++ {
		m.Set(i)
	}
	return m
}

// RangeMask returns a mask with lanes [lo, hi) set.
func RangeMask(n, lo, hi int) *Mask {
	m := NewMask(n)
	for i := lo; i < hi; i++ {
		m.Set(i)
	}
	return m
}

// StrideMask returns a mask over n lanes with every lane i set where
// i % stride == offset. It models layouts such as "one lane in four holds
// the final sum" in the convolution benchmark.
func StrideMask(n, stride, offset int) *Mask {
	if stride <= 0 {
		panic("program: stride must be positive")
	}
	m := NewMask(n)
	for i := offset; i < n; i += stride {
		m.Set(i)
	}
	return m
}

// Len returns the number of lanes the mask ranges over.
func (m *Mask) Len() int { return m.n }

// Count returns the number of set lanes.
func (m *Mask) Count() int { return m.count }

// Set marks lane i as participating.
func (m *Mask) Set(i int) {
	m.check(i)
	w, b := i/64, uint(i%64)
	if m.words[w]&(1<<b) == 0 {
		m.words[w] |= 1 << b
		m.count++
	}
}

// Get reports whether lane i is set.
func (m *Mask) Get(i int) bool {
	m.check(i)
	return m.words[i/64]&(1<<uint(i%64)) != 0
}

func (m *Mask) check(i int) {
	if i < 0 || i >= m.n {
		panic(fmt.Sprintf("program: lane %d out of range [0,%d)", i, m.n))
	}
}

// Full reports whether every lane is set.
func (m *Mask) Full() bool { return m.count == m.n }

// ForEach calls fn for every set lane in ascending order.
func (m *Mask) ForEach(fn func(lane int)) {
	for w, word := range m.words {
		for word != 0 {
			b := bits.TrailingZeros64(word)
			fn(w*64 + b)
			word &= word - 1
		}
	}
}

// Lanes returns the set lanes in ascending order.
func (m *Mask) Lanes() []int {
	out := make([]int, 0, m.count)
	m.ForEach(func(l int) { out = append(out, l) })
	return out
}

// Clone returns an independent copy of the mask.
func (m *Mask) Clone() *Mask {
	c := &Mask{words: make([]uint64, len(m.words)), n: m.n, count: m.count}
	copy(c.words, m.words)
	return c
}

// Subset reports whether every lane of m is also set in o.
func (m *Mask) Subset(o *Mask) bool {
	if m.n != o.n {
		return false
	}
	for i := range m.words {
		if m.words[i]&^o.words[i] != 0 {
			return false
		}
	}
	return true
}

// Equal reports whether two masks have identical size and membership.
func (m *Mask) Equal(o *Mask) bool {
	if m.n != o.n || m.count != o.count {
		return false
	}
	for i := range m.words {
		if m.words[i] != o.words[i] {
			return false
		}
	}
	return true
}

// key returns a canonical string representation used for mask deduplication
// inside traces.
func (m *Mask) key() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%d:", m.n)
	for _, w := range m.words {
		fmt.Fprintf(&sb, "%016x", w)
	}
	return sb.String()
}

// String renders the mask compactly for debugging.
func (m *Mask) String() string {
	if m.Full() {
		return fmt.Sprintf("all(%d)", m.n)
	}
	return fmt.Sprintf("%d/%d lanes", m.count, m.n)
}

package synth

import (
	"fmt"

	"pimendure/internal/program"
)

// Dadda emits a b×b-bit Dadda multiplier and returns the 2b-bit product,
// least significant bit first. The construction is the classical one the
// paper cites [36]: b² AND partial products, staged reduction to height 2
// following the Dadda height sequence (2, 3, 4, 6, 9, 13, …), and a final
// carry-propagate addition — totalling b²−2b full adders and b half adders
// (§2.2), i.e. 10b²−13b gates in the NAND basis (9 824 for b = 32, the
// §3.1 number) and 6b²−8b in the Mixed2 basis (the Table 2 model).
//
// Partial products are materialized lazily — each AND gate is emitted
// immediately before the adder that consumes its output — so the live
// workspace stays far below b² bits and the multiplier fits the paper's
// lanes ("practical array sizes can easily accommodate the multiplication
// of 64-bit integer operands", §3.1 fn. 3). Gate counts are unaffected:
// every partial product is materialized exactly once.
//
// Operand width must be at least 2. Input bits remain owned by the caller;
// product bits transfer to the caller; all intermediates are freed.
func Dadda(bld *program.Builder, basis Basis, x, y []program.Bit) []program.Bit {
	if len(x) != len(y) {
		panic("synth: Dadda operand width mismatch")
	}
	b := len(x)
	if b < 2 {
		panic("synth: Dadda requires operands of at least 2 bits")
	}

	d := &daddaState{bld: bld, basis: basis, x: x, y: y, cols: make([][]ppEntry, 2*b)}
	// Partial product pp(i,j) = x_i AND y_j belongs to column i+j; record
	// it as a pending thunk, materialized on consumption.
	for i := 0; i < b; i++ {
		for j := 0; j < b; j++ {
			d.cols[i+j] = append(d.cols[i+j], ppEntry{bit: program.NoBit, i: int16(i), j: int16(j)})
		}
	}

	// Reduce through the Dadda height targets, largest first.
	for _, t := range daddaTargets(b) {
		d.reduceStage(t)
	}

	// Final carry-propagate addition over the (height ≤ 2) columns.
	prod := make([]program.Bit, 2*b)
	carry := program.NoBit
	for c := range d.cols {
		bits := d.cols[c]
		if carry != program.NoBit {
			bits = append(bits, concrete(carry))
			carry = program.NoBit
		}
		switch len(bits) {
		case 1:
			prod[c] = d.take(&bits[0])
		case 2:
			s, cy := basis.HalfAdder(bld, d.take(&bits[0]), d.take(&bits[1]))
			d.release(bits[:2])
			prod[c], carry = s, cy
		case 3:
			s, cy := basis.FullAdder(bld, d.take(&bits[0]), d.take(&bits[1]), d.take(&bits[2]))
			d.release(bits[:3])
			prod[c], carry = s, cy
		default:
			panic(fmt.Sprintf("synth: Dadda column %d has height %d after reduction", c, len(bits)))
		}
	}
	if carry != program.NoBit {
		panic("synth: Dadda carry out of top column")
	}
	return prod
}

// ppEntry is either a pending partial product (i ≥ 0, ANDing x[i]·y[j] on
// demand) or a concrete allocated bit (i < 0).
type ppEntry struct {
	bit  program.Bit
	i, j int16
}

func concrete(b program.Bit) ppEntry { return ppEntry{bit: b, i: -1, j: -1} }

type daddaState struct {
	bld   *program.Builder
	basis Basis
	x, y  []program.Bit
	cols  [][]ppEntry
}

// take materializes an entry's bit, emitting its AND gate if pending.
func (d *daddaState) take(e *ppEntry) program.Bit {
	if e.i >= 0 {
		e.bit = d.basis.And(d.bld, d.x[e.i], d.y[e.j])
		e.i, e.j = -1, -1
	}
	return e.bit
}

// release frees consumed entries' bits.
func (d *daddaState) release(es []ppEntry) {
	for i := range es {
		d.bld.Free(es[i].bit)
	}
}

// reduceStage compresses every column to height ≤ t using full and half
// adders, processing columns low to high so that same-stage carries are
// themselves compressed (the standard Dadda schedule).
func (d *daddaState) reduceStage(t int) {
	for c := 0; c < len(d.cols); c++ {
		bits := d.cols[c]
		i := 0 // bits[:i] are consumed
		for len(bits)-i > t {
			if len(bits)-i-t >= 2 {
				s, cy := d.basis.FullAdder(d.bld, d.take(&bits[i]), d.take(&bits[i+1]), d.take(&bits[i+2]))
				d.release(bits[i : i+3])
				i += 3
				bits = append(bits, concrete(s))
				d.carryTo(c+1, cy)
			} else {
				s, cy := d.basis.HalfAdder(d.bld, d.take(&bits[i]), d.take(&bits[i+1]))
				d.release(bits[i : i+2])
				i += 2
				bits = append(bits, concrete(s))
				d.carryTo(c+1, cy)
			}
		}
		d.cols[c] = bits[i:]
	}
}

func (d *daddaState) carryTo(c int, bit program.Bit) {
	if c >= len(d.cols) {
		panic("synth: Dadda carry beyond product width")
	}
	d.cols[c] = append(d.cols[c], concrete(bit))
}

// daddaTargets returns the Dadda stage height targets below b, in
// descending order: the sequence d₁=2, dⱼ₊₁=⌊3dⱼ/2⌋ truncated to values
// < b.
func daddaTargets(b int) []int {
	seq := []int{2}
	for {
		next := seq[len(seq)-1] * 3 / 2
		if next >= b {
			break
		}
		seq = append(seq, next)
	}
	// Reverse to descending.
	for i, j := 0, len(seq)-1; i < j; i, j = i+1, j-1 {
		seq[i], seq[j] = seq[j], seq[i]
	}
	return seq
}

// MultiplierGates returns the analytic total gate count of a b-bit Dadda
// multiply in the given basis: FA·(b²−2b) + HA·b + b² AND gates.
func MultiplierGates(basis Basis, b int) int {
	return fullAdderGates(basis)*(b*b-2*b) + halfAdderGates(basis)*b + b*b
}

// CircuitCounts reports how many full adders, half adders and AND partial
// products a synthesized circuit used.
type CircuitCounts struct {
	FullAdders int
	HalfAdders int
	Ands       int
}

// countingBasis wraps a basis and tallies the adder cells requested.
type countingBasis struct {
	inner  Basis
	counts CircuitCounts
}

func (c *countingBasis) Name() string { return c.inner.Name() }

func (c *countingBasis) FullAdder(bld *program.Builder, a, b, cin program.Bit) (program.Bit, program.Bit) {
	c.counts.FullAdders++
	return c.inner.FullAdder(bld, a, b, cin)
}

func (c *countingBasis) HalfAdder(bld *program.Builder, a, b program.Bit) (program.Bit, program.Bit) {
	c.counts.HalfAdders++
	return c.inner.HalfAdder(bld, a, b)
}

func (c *countingBasis) And(bld *program.Builder, a, b program.Bit) program.Bit {
	c.counts.Ands++
	return c.inner.And(bld, a, b)
}

func (c *countingBasis) Or(bld *program.Builder, a, b program.Bit) program.Bit {
	return c.inner.Or(bld, a, b)
}

func (c *countingBasis) Xor(bld *program.Builder, a, b program.Bit) program.Bit {
	return c.inner.Xor(bld, a, b)
}

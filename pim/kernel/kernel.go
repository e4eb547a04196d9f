// Package kernel compiles arithmetic expressions into PIM benchmarks. The
// paper's workloads are hand-scheduled kernels; this package generalizes
// them: describe a per-lane computation as an expression DAG over fresh
// operands, and Compile produces a trace (every lane evaluates the DAG on
// its own data, SIMD-style, §2.2's "application mapping" for
// embarrassingly parallel work) together with an automatically derived
// reference model, so the result plugs into pim.Run, pim.Verify and the
// whole endurance pipeline.
//
//	a := kernel.Input(8)
//	b := kernel.Input(8)
//	c := kernel.Input(16)
//	mac := kernel.Add(kernel.Mul(a, b), c) // a*b + c per lane
//	bench, err := kernel.Compile(opt, "mac8", kernel.Output(mac))
package kernel

import (
	"fmt"
	"math/big"

	"pimendure/internal/program"
	"pimendure/internal/synth"
	"pimendure/internal/workloads"
	"pimendure/pim"
)

// Op is an expression node kind.
type Op uint8

const (
	opInput Op = iota
	opMul
	opAdd
	opAnd
	opOr
	opXor
	opNot
	opGE
)

// String names the node kind for diagnostics ("input", "mul", ...).
func (o Op) String() string {
	return [...]string{"input", "mul", "add", "and", "or", "xor", "not", "ge"}[o]
}

// Node is one vertex of an expression DAG. Nodes are immutable once
// created and may be shared between expressions (common subexpressions
// compile once).
type Node struct {
	op   Op
	bits int
	args []*Node
}

// Bits returns the node's result width in bits.
func (n *Node) Bits() int { return n.bits }

// Input declares a fresh operand of the given width, loaded from external
// data every iteration.
func Input(bits int) *Node {
	return &Node{op: opInput, bits: bits}
}

// Mul multiplies two nodes (Dadda synthesis); the result has the summed
// width.
func Mul(a, b *Node) *Node {
	return &Node{op: opMul, bits: a.bits + b.bits, args: []*Node{a, b}}
}

// Add adds two nodes (ripple-carry); the result is one bit wider than the
// wider operand.
func Add(a, b *Node) *Node {
	w := a.bits
	if b.bits > w {
		w = b.bits
	}
	return &Node{op: opAdd, bits: w + 1, args: []*Node{a, b}}
}

// And applies a bitwise AND; operand widths must match.
func And(a, b *Node) *Node { return &Node{op: opAnd, bits: a.bits, args: []*Node{a, b}} }

// Or applies a bitwise OR; operand widths must match.
func Or(a, b *Node) *Node { return &Node{op: opOr, bits: a.bits, args: []*Node{a, b}} }

// Xor applies a bitwise XOR; operand widths must match.
func Xor(a, b *Node) *Node { return &Node{op: opXor, bits: a.bits, args: []*Node{a, b}} }

// Not inverts every bit.
func Not(a *Node) *Node { return &Node{op: opNot, bits: a.bits, args: []*Node{a}} }

// GE compares two equal-width nodes, producing a single bit that is 1 iff
// a ≥ b (the BNN threshold primitive).
func GE(a, b *Node) *Node { return &Node{op: opGE, bits: 1, args: []*Node{a, b}} }

// Output marks a node whose value is read out of the array each
// iteration.
type OutputNode struct{ n *Node }

// Output wraps a node for readout.
func Output(n *Node) OutputNode { return OutputNode{n: n} }

// Compile synthesizes the DAG into a pim.Benchmark: inputs become operand
// writes (slot order = first-use order across outputs), interior nodes
// become gate networks with workspace freed as consumers complete, and
// outputs become readouts. The benchmark's Check recomputes the DAG per
// lane with big-integer arithmetic.
func Compile(opt pim.Options, name string, outputs ...OutputNode) (*pim.Benchmark, error) {
	if len(outputs) == 0 {
		return nil, fmt.Errorf("kernel: no outputs")
	}
	if err := validateDAG(outputs); err != nil {
		return nil, err
	}
	order, refs := schedule(outputs)
	return workloads.Build(opt.Config(), func(bld *program.Builder, basis synth.Basis) *pim.Benchmark {
		return emit(bld, basis, opt.Lanes, name, order, refs, outputs)
	})
}

// validateDAG checks widths and arities.
func validateDAG(outputs []OutputNode) error {
	seen := map[*Node]bool{}
	var walk func(n *Node) error
	walk = func(n *Node) error {
		if n == nil {
			return fmt.Errorf("kernel: nil node")
		}
		if seen[n] {
			return nil
		}
		seen[n] = true
		for _, a := range n.args {
			if err := walk(a); err != nil {
				return err
			}
		}
		switch n.op {
		case opInput:
			if n.bits < 1 {
				return fmt.Errorf("kernel: input width %d < 1", n.bits)
			}
		case opMul:
			if n.args[0].bits < 2 || n.args[1].bits < 2 {
				return fmt.Errorf("kernel: mul operands need ≥2 bits")
			}
		case opAnd, opOr, opXor, opGE:
			if n.args[0].bits != n.args[1].bits {
				return fmt.Errorf("kernel: %v operand widths %d and %d differ",
					n.op, n.args[0].bits, n.args[1].bits)
			}
		}
		return nil
	}
	for _, o := range outputs {
		if err := walk(o.n); err != nil {
			return err
		}
	}
	return nil
}

// schedule returns a topological order (post-order DFS, deduplicated) and
// the consumer count of each node (+1 per output mark).
func schedule(outputs []OutputNode) ([]*Node, map[*Node]int) {
	var order []*Node
	visited := map[*Node]bool{}
	refs := map[*Node]int{}
	var walk func(n *Node)
	walk = func(n *Node) {
		if visited[n] {
			return
		}
		visited[n] = true
		for _, a := range n.args {
			walk(a)
		}
		for _, a := range n.args {
			refs[a]++
		}
		order = append(order, n)
	}
	for _, o := range outputs {
		walk(o.n)
		refs[o.n]++
	}
	return order, refs
}

// emit synthesizes the scheduled DAG onto bld and returns the
// benchmark's name, description and checker (workloads.Build attaches
// the trace).
func emit(bld *program.Builder, basis synth.Basis, lanes int, name string, order []*Node,
	refs map[*Node]int, outputs []OutputNode) *pim.Benchmark {
	bits := map[*Node][]program.Bit{}
	inputSlot := map[*Node]int{}
	remaining := map[*Node]int{}
	for n, r := range refs {
		remaining[n] = r
	}

	release := func(n *Node) {
		remaining[n]--
		if remaining[n] == 0 {
			bld.Free(bits[n]...)
			bits[n] = nil
		}
	}

	for _, n := range order {
		switch n.op {
		case opInput:
			var slot int
			bits[n], slot = bld.WriteVector(n.bits)
			inputSlot[n] = slot
		case opMul:
			bits[n] = synth.Dadda(bld, basis, bits[n.args[0]], bits[n.args[1]])
		case opAdd:
			bits[n] = synth.AddUneven(bld, basis, bits[n.args[0]], bits[n.args[1]])
		case opAnd:
			bits[n] = bitwise(bld, basis, bits[n.args[0]], bits[n.args[1]], basisAnd)
		case opOr:
			bits[n] = bitwise(bld, basis, bits[n.args[0]], bits[n.args[1]], basisOr)
		case opXor:
			bits[n] = bitwise(bld, basis, bits[n.args[0]], bits[n.args[1]], basisXor)
		case opNot:
			a := bits[n.args[0]]
			out := make([]program.Bit, n.bits)
			for i := range out {
				out[i] = bld.Not(a[i])
			}
			bits[n] = out
		case opGE:
			bits[n] = []program.Bit{synth.GreaterEqual(bld, basis, bits[n.args[0]], bits[n.args[1]])}
		}
		for _, a := range n.args {
			release(a)
		}
	}

	outSlots := make([]int, len(outputs))
	for i, o := range outputs {
		outSlots[i] = bld.ReadVector(bits[o.n])
	}
	for _, o := range outputs {
		release(o.n)
	}

	return &pim.Benchmark{
		Name:        name,
		Description: fmt.Sprintf("kernel %q: %d inputs, %d nodes, %d outputs, %d lanes", name, len(inputSlot), len(order), len(outputs), lanes),
		Check: func(data workloads.DataFunc, out workloads.OutFunc) error {
			for l := 0; l < lanes; l++ {
				vals := map[*Node]*big.Int{}
				for _, n := range order {
					vals[n] = evalNode(n, vals, data, inputSlot, l)
				}
				for i, o := range outputs {
					want := vals[o.n]
					got := new(big.Int)
					for b := 0; b < o.n.bits; b++ {
						if out(outSlots[i]+b, l) {
							got.SetBit(got, b, 1)
						}
					}
					if got.Cmp(want) != 0 {
						return fmt.Errorf("kernel %q lane %d output %d: got %v, want %v",
							name, l, i, got, want)
					}
				}
			}
			return nil
		},
	}
}

type gateFn func(b synth.Basis, bld *program.Builder, x, y program.Bit) program.Bit

func basisAnd(b synth.Basis, bld *program.Builder, x, y program.Bit) program.Bit {
	return b.And(bld, x, y)
}
func basisOr(b synth.Basis, bld *program.Builder, x, y program.Bit) program.Bit {
	return b.Or(bld, x, y)
}
func basisXor(b synth.Basis, bld *program.Builder, x, y program.Bit) program.Bit {
	return b.Xor(bld, x, y)
}

func bitwise(bld *program.Builder, basis synth.Basis, a, b []program.Bit, fn gateFn) []program.Bit {
	out := make([]program.Bit, len(a))
	for i := range out {
		out[i] = fn(basis, bld, a[i], b[i])
	}
	return out
}

// evalNode computes a node's reference value for one lane.
func evalNode(n *Node, vals map[*Node]*big.Int, data workloads.DataFunc, inputSlot map[*Node]int, lane int) *big.Int {
	mask := func(v *big.Int, bits int) *big.Int {
		m := new(big.Int).Lsh(big.NewInt(1), uint(bits))
		m.Sub(m, big.NewInt(1))
		return v.And(v, m)
	}
	switch n.op {
	case opInput:
		v := new(big.Int)
		for b := 0; b < n.bits; b++ {
			if data(inputSlot[n]+b, lane) {
				v.SetBit(v, b, 1)
			}
		}
		return v
	case opMul:
		return new(big.Int).Mul(vals[n.args[0]], vals[n.args[1]])
	case opAdd:
		return new(big.Int).Add(vals[n.args[0]], vals[n.args[1]])
	case opAnd:
		return new(big.Int).And(vals[n.args[0]], vals[n.args[1]])
	case opOr:
		return new(big.Int).Or(vals[n.args[0]], vals[n.args[1]])
	case opXor:
		return new(big.Int).Xor(vals[n.args[0]], vals[n.args[1]])
	case opNot:
		v := new(big.Int).Not(vals[n.args[0]])
		return mask(v, n.bits)
	case opGE:
		if vals[n.args[0]].Cmp(vals[n.args[1]]) >= 0 {
			return big.NewInt(1)
		}
		return big.NewInt(0)
	}
	panic(fmt.Sprintf("kernel: unknown op %v", n.op))
}

package workloads

import (
	"fmt"
	"math/bits"

	"pimendure/internal/gates"
	"pimendure/internal/program"
	"pimendure/internal/synth"
)

// BNNLayer compiles a binarized-neural-network neuron per lane — the
// workload class the paper's convolution benchmark abstracts (§4, [9, 31]):
// activations and weights are ±1, encoded as bits, so a neuron is an
// n-bit XNOR followed by a popcount and a threshold comparison producing a
// single output bit.
//
// Every lane loads an n-bit activation vector and an n-bit weight vector,
// XNORs them (n gates), reduces the match bits with an in-lane adder tree
// (popcount), compares against a ⌈log₂(n+1)⌉-bit threshold, and reads the
// single-bit activation out. This is an extension benchmark beyond the
// paper's three kernels.
func BNNLayer(cfg Config, n int) (*Benchmark, error) {
	return build(cfg, Kernel{Name: "bnn", Synapses: n}, func(bld *program.Builder, basis synth.Basis) *Benchmark {
		act, aSlot := bld.WriteVector(n)
		wgt, wSlot := bld.WriteVector(n)

		// XNOR per synapse: 1 on agreement (±1 product = +1).
		match := make([]program.Bit, n)
		for i := 0; i < n; i++ {
			x := basis.Xor(bld, act[i], wgt[i])
			match[i] = bld.Gate(gates.NOT, x, program.NoBit)
			bld.Free(x)
		}
		bld.Free(act...)
		bld.Free(wgt...)

		// Popcount: fold the match bits into a growing binary counter,
		// trimming top bits that are provably zero (the running sum after i
		// synapses is at most i, so ⌈log₂(i+1)⌉ bits suffice).
		count := []program.Bit{match[0]}
		for i := 1; i < n; i++ {
			next := synth.AddUneven(bld, basis, count, match[i:i+1])
			bld.Free(count...)
			bld.Free(match[i])
			if needed := popcountWidth(i + 1); len(next) > needed {
				bld.Free(next[needed:]...)
				next = next[:needed]
			}
			count = next
		}
		width := len(count)

		thr, tSlot := bld.WriteVector(width)
		out := synth.GreaterEqual(bld, basis, count, thr)
		oSlot := bld.Read(out)
		bld.Free(count...)
		bld.Free(thr...)
		bld.Free(out)
		lanes := cfg.Lanes
		return &Benchmark{
			Name: "bnn-layer",
			Description: fmt.Sprintf("binarized NN neuron, %d synapses (XNOR+popcount+threshold), %d lanes, %s basis",
				n, lanes, basis.Name()),
			Check: func(data DataFunc, out OutFunc) error {
				for l := 0; l < lanes; l++ {
					var agree uint64
					for i := 0; i < n; i++ {
						if data(aSlot+i, l) == data(wSlot+i, l) {
							agree++
						}
					}
					threshold := slotWord(data, tSlot, width, l)
					want := agree >= threshold
					if got := out(oSlot, l); got != want {
						return fmt.Errorf("lane %d: %d matches vs threshold %d read %v, want %v",
							l, agree, threshold, got, want)
					}
				}
				return nil
			},
		}
	})
}

// popcountWidth returns ⌈log₂(n+1)⌉, the counter width an n-input
// popcount needs.
func popcountWidth(n int) int {
	return bits.Len(uint(n))
}

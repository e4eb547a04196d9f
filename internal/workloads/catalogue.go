package workloads

import (
	"fmt"
	"math/bits"
	"strings"

	"pimendure/internal/program"
	"pimendure/internal/synth"
)

// Kernel names a catalogue kernel and its parameters. A zero parameter
// takes the paper's §4 default: 32-bit operands (8 for convolution), a
// dot product over the largest power of two ≤ the lane count, a 4×3
// convolution, 64 BNN synapses. Parameters a kernel does not use are
// ignored, apart from being rejected when negative.
type Kernel struct {
	// Name is "mult", "dot", "conv", "add" or "bnn", or an alias such
	// as "multiplication" or "dot-product", in any case.
	Name string
	// Bits is the operand precision (all kernels but bnn).
	Bits int
	// N is the dot-product length.
	N int
	// GroupLanes and MultsPerLane shape the convolution.
	GroupLanes, MultsPerLane int
	// Synapses sizes the BNN layer.
	Synapses int
}

// kernelNames maps every accepted kernel name, lower-cased, to its
// canonical name.
var kernelNames = map[string]string{
	"mult": "mult", "multiplication": "mult",
	"dot": "dot", "dot-product": "dot", "dotproduct": "dot",
	"conv": "conv", "convolution": "conv",
	"add": "add", "vadd": "add", "vector-add": "add", "vectoradd": "add",
	"bnn": "bnn", "bnn-layer": "bnn",
}

// Normalize resolves an alias to the canonical name and fills the
// kernel's zero parameters with their paper defaults for an array of
// the given lane count. Unknown names are left for Check to reject.
func (k Kernel) Normalize(lanes int) Kernel {
	name, ok := kernelNames[strings.ToLower(k.Name)]
	if !ok {
		return k
	}
	k.Name = name
	orDefault := func(v *int, def int) {
		if *v == 0 {
			*v = def
		}
	}
	switch name {
	case "conv":
		orDefault(&k.Bits, 8)
		orDefault(&k.GroupLanes, 4)
		orDefault(&k.MultsPerLane, 3)
	case "bnn":
		orDefault(&k.Synapses, 64)
	default:
		orDefault(&k.Bits, 32)
	}
	if name == "dot" {
		orDefault(&k.N, 1<<(bits.Len(uint(max(lanes, 1)))-1))
	}
	return k
}

// Check validates a normalized kernel for an array of the given lane
// count without compiling it: the name must be canonical, no parameter
// may be negative, and the kernel's own parameters must describe a
// circuit its constructor can build. The constructors run the same
// check, so admission and compilation cannot disagree.
func (k Kernel) Check(lanes int) error {
	for _, p := range []struct {
		name string
		v    int
	}{
		{"bits", k.Bits}, {"n", k.N}, {"group_lanes", k.GroupLanes},
		{"mults_per_lane", k.MultsPerLane}, {"synapses", k.Synapses},
	} {
		if p.v < 0 {
			return fmt.Errorf("%s must be positive, got %d", p.name, p.v)
		}
	}
	switch k.Name {
	case "mult":
		if k.Bits < 2 {
			return fmt.Errorf("workloads: multiplication needs ≥2-bit operands, got %d", k.Bits)
		}
	case "dot":
		if k.N < 2 || k.N&(k.N-1) != 0 {
			return fmt.Errorf("workloads: dot-product length %d must be a power of two ≥ 2", k.N)
		}
		if k.N > lanes {
			return fmt.Errorf("workloads: dot-product length %d exceeds %d lanes", k.N, lanes)
		}
		if k.Bits < 2 {
			return fmt.Errorf("workloads: dot-product needs ≥2-bit operands, got %d", k.Bits)
		}
	case "conv":
		if k.GroupLanes < 2 || k.MultsPerLane < 1 || k.Bits < 2 {
			return fmt.Errorf("workloads: invalid convolution shape %+v", k.conv())
		}
		if lanes%k.GroupLanes != 0 {
			return fmt.Errorf("workloads: %d lanes not divisible into groups of %d", lanes, k.GroupLanes)
		}
	case "add":
		if k.Bits < 1 {
			return fmt.Errorf("workloads: addition needs ≥1-bit operands, got %d", k.Bits)
		}
	case "bnn":
		if k.Synapses < 2 {
			return fmt.Errorf("workloads: BNN layer needs ≥2 synapses, got %d", k.Synapses)
		}
	case "":
		return fmt.Errorf("missing benchmark (mult, dot, conv, add, bnn)")
	default:
		return fmt.Errorf("unknown benchmark %q (mult, dot, conv, add, bnn)", k.Name)
	}
	return nil
}

// Compile normalizes, checks and compiles a catalogue kernel.
func Compile(cfg Config, k Kernel) (*Benchmark, error) {
	k = k.Normalize(cfg.Lanes)
	if err := k.Check(cfg.Lanes); err != nil {
		return nil, err
	}
	switch k.Name {
	case "mult":
		return ParallelMult(cfg, k.Bits)
	case "dot":
		return DotProduct(cfg, k.N, k.Bits)
	case "conv":
		return Convolution(cfg, k.conv())
	case "add":
		return VectorAdd(cfg, k.Bits)
	}
	return BNNLayer(cfg, k.Synapses)
}

func (k Kernel) conv() ConvConfig {
	return ConvConfig{GroupLanes: k.GroupLanes, MultsPerLane: k.MultsPerLane, Bits: k.Bits}
}

// build is every constructor's frame: it checks the configuration and
// the kernel's shape, lets body emit the ops on a fresh builder and
// return the benchmark's name, description and checker, then attaches
// the validated trace. A builder panic (the program outgrew Rows)
// becomes an error.
func build(cfg Config, shape Kernel, body func(bld *program.Builder, basis synth.Basis) *Benchmark) (bench *Benchmark, err error) {
	defer func() {
		if r := recover(); r != nil {
			bench, err = nil, fmt.Errorf("workloads: %v (increase Rows?)", r)
		}
	}()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if err := shape.Check(cfg.Lanes); err != nil {
		return nil, err
	}
	bld := program.NewBuilder(cfg.Lanes, cfg.Rows-1)
	bld.SetAllocPolicy(cfg.Alloc)
	bench = body(bld, cfg.basis())
	bench.Trace = bld.Trace()
	if err := bench.Trace.Validate(); err != nil {
		return nil, err
	}
	return bench, nil
}

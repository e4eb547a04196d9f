package pim_test

import (
	"strings"
	"testing"

	"pimendure/pim"
)

// Every kernel name and alias, in any case, normalizes to its canonical
// name and the paper's defaults, and compiles there: 32-bit operands,
// 8-bit convolution at 4×3, 64 BNN synapses, and a dot product over the
// largest power of two ≤ the lane count (16 of 24 lanes).
func TestKernelCatalogue(t *testing.T) {
	opt := pim.Options{Lanes: 24, Rows: 1024, PresetOutputs: true, NANDBasis: true}
	mult := pim.KernelSpec{Name: "mult", Bits: 32}
	dot := pim.KernelSpec{Name: "dot", Bits: 32, N: 16}
	conv := pim.KernelSpec{Name: "conv", Bits: 8, GroupLanes: 4, MultsPerLane: 3}
	add := pim.KernelSpec{Name: "add", Bits: 32}
	bnn := pim.KernelSpec{Name: "bnn", Synapses: 64}
	for _, tc := range []struct {
		name  string
		want  pim.KernelSpec
		bench string // compiled Benchmark.Name
		desc  string // fragment of the compiled description
	}{
		{"mult", mult, "multiplication", "32-bit multiplication"},
		{"multiplication", mult, "multiplication", "32-bit multiplication"},
		{"MULT", mult, "multiplication", "32-bit multiplication"},
		{"dot", dot, "dot-product", "16-element dot-product of 32-bit"},
		{"dot-product", dot, "dot-product", "16-element dot-product of 32-bit"},
		{"DotProduct", dot, "dot-product", "16-element dot-product of 32-bit"},
		{"conv", conv, "convolution", "4×3 filter positions per group, 8-bit"},
		{"Convolution", conv, "convolution", "4×3 filter positions per group, 8-bit"},
		{"add", add, "vector-add", "32-bit addition"},
		{"vadd", add, "vector-add", "32-bit addition"},
		{"vector-add", add, "vector-add", "32-bit addition"},
		{"vectoradd", add, "vector-add", "32-bit addition"},
		{"bnn", bnn, "bnn-layer", "64 synapses"},
		{"bnn-layer", bnn, "bnn-layer", "64 synapses"},
	} {
		got := pim.KernelSpec{Name: tc.name}.Normalize(opt.Lanes)
		if got != tc.want {
			t.Errorf("%s normalizes to %+v, want %+v", tc.name, got, tc.want)
			continue
		}
		if err := got.Check(opt.Lanes); err != nil {
			t.Errorf("%s: defaults rejected: %v", tc.name, err)
		}
		b, err := pim.NewKernel(opt, pim.KernelSpec{Name: tc.name})
		if err != nil {
			t.Errorf("%s: %v", tc.name, err)
			continue
		}
		if b.Name != tc.bench || !strings.Contains(b.Description, tc.desc) {
			t.Errorf("%s compiled to %q (%s), want %q (%s)", tc.name, b.Name, b.Description, tc.bench, tc.desc)
		}
	}
}

// Every kernel compiles through the catalogue at explicit small
// parameters and at its defaults, with a valid trace; unknown and
// missing names are rejected.
func TestNewKernel(t *testing.T) {
	for _, opt := range []pim.Options{
		{Lanes: 16, Rows: 1024, PresetOutputs: true, NANDBasis: true},
		{Lanes: 16, Rows: 512, PresetOutputs: true, NANDBasis: true},
	} {
		for _, name := range []string{"mult", "dot", "conv", "add", "bnn"} {
			k := pim.KernelSpec{Name: name, Bits: 4}
			if opt.Rows == 1024 {
				k.Bits = 0
			}
			b, err := pim.NewKernel(opt, k)
			if err != nil {
				t.Errorf("%+v at %d rows: %v", k, opt.Rows, err)
				continue
			}
			if err := b.Trace.Validate(); err != nil {
				t.Errorf("%+v: %v", k, err)
			}
		}
	}
	opt := pim.Options{Lanes: 16, Rows: 512, PresetOutputs: true, NANDBasis: true}
	for _, name := range []string{"nope", ""} {
		if _, err := pim.NewKernel(opt, pim.KernelSpec{Name: name}); err == nil {
			t.Errorf("benchmark %q accepted", name)
		}
	}
}

// Bits 0 gives the paper's 8-bit convolution; an explicit precision is
// honoured, 32 bits included.
func TestNewKernelConvPaperPrecision(t *testing.T) {
	opt := pim.Options{Lanes: 16, Rows: 1024, PresetOutputs: true, NANDBasis: true}
	for bits, want := range map[int]string{0: "8-bit", 32: "32-bit"} {
		b, err := pim.NewKernel(opt, pim.KernelSpec{Name: "conv", Bits: bits})
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(b.Description, want) {
			t.Errorf("bits %d: description %q should mention %s", bits, b.Description, want)
		}
	}
}

// Check rejects malformed shapes without compiling them, and NewKernel
// refuses the same specs.
func TestKernelCheckRejects(t *testing.T) {
	const lanes = 16
	opt := pim.Options{Lanes: lanes, Rows: 512, PresetOutputs: true, NANDBasis: true}
	for name, k := range map[string]pim.KernelSpec{
		"non-power-of-two n": {Name: "dot", N: 3},
		"n over the lanes":   {Name: "dot", N: 32},
		"1-bit mult":         {Name: "mult", Bits: 1},
		"negative bits":      {Name: "add", Bits: -8},
		"negative unused n":  {Name: "mult", N: -2},
		"1-lane groups":      {Name: "conv", GroupLanes: 1},
		"indivisible groups": {Name: "conv", GroupLanes: 3},
		"one synapse":        {Name: "bnn", Synapses: 1},
		"unknown benchmark":  {Name: "fft"},
		"missing benchmark":  {},
	} {
		if err := k.Normalize(lanes).Check(lanes); err == nil {
			t.Errorf("%s: %+v passed the check", name, k)
		}
		if _, err := pim.NewKernel(opt, k); err == nil {
			t.Errorf("%s: %+v compiled", name, k)
		}
	}
}

// Technology names resolve case-insensitively to the paper's device
// models.
func TestTechnologyNamed(t *testing.T) {
	for _, name := range []string{"MRAM", "rram", "Pcm", "MRAM-projected"} {
		tech, err := pim.TechnologyNamed(name)
		if err != nil {
			t.Errorf("%s: %v", name, err)
		} else if !strings.EqualFold(tech.Name, name) {
			t.Errorf("%s resolved to %s", name, tech.Name)
		}
	}
	if _, err := pim.TechnologyNamed("SRAM"); err == nil {
		t.Error("unknown technology accepted")
	}
}

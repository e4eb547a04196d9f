package main

import (
	"testing"

	"pimendure/pim"
)

// Every kernel name -bench documents compiles the way main builds it
// (at -bits 0, the kernel's paper precision) to a valid trace, and an
// unknown name is rejected.
func TestMakeBench(t *testing.T) {
	opt := pim.Options{Lanes: 16, Rows: 1024, PresetOutputs: true, NANDBasis: true}
	for _, name := range []string{"mult", "dot", "conv", "add", "bnn"} {
		b, err := pim.NewKernel(opt, pim.KernelSpec{Name: name})
		if err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		if err := b.Trace.Validate(); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
	if _, err := pim.NewKernel(opt, pim.KernelSpec{Name: "nope"}); err == nil {
		t.Error("unknown benchmark accepted")
	}
}

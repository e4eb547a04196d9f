package traceio

import (
	"bytes"
	"strings"
	"testing"

	"pimendure/internal/core"
	"pimendure/internal/synth"
	"pimendure/internal/workloads"
)

func sampleTrace(t *testing.T) *workloads.Benchmark {
	t.Helper()
	cfg := workloads.Config{Lanes: 8, Rows: 128, Basis: synth.NAND}
	b, err := workloads.DotProduct(cfg, 8, 4)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestTraceRoundTrip(t *testing.T) {
	tr := sampleTrace(t).Trace
	var buf bytes.Buffer
	if err := WriteTrace(&buf, tr); err != nil {
		t.Fatal(err)
	}
	back, err := ReadTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Lanes != tr.Lanes || back.LaneBits != tr.LaneBits ||
		back.WriteSlots != tr.WriteSlots || back.ReadSlots != tr.ReadSlots {
		t.Fatalf("header mismatch: %+v vs %+v", back, tr)
	}
	if len(back.Ops) != len(tr.Ops) {
		t.Fatalf("op count %d vs %d", len(back.Ops), len(tr.Ops))
	}
	for i := range tr.Ops {
		if back.Ops[i] != tr.Ops[i] {
			t.Fatalf("op %d: %+v vs %+v", i, back.Ops[i], tr.Ops[i])
		}
	}
	if len(back.Masks) != len(tr.Masks) {
		t.Fatalf("mask count %d vs %d", len(back.Masks), len(tr.Masks))
	}
	for i := range tr.Masks {
		if !back.Masks[i].Equal(tr.Masks[i]) {
			t.Fatalf("mask %d differs", i)
		}
	}
}

// A round-tripped trace must produce the identical wear distribution —
// the end-to-end guarantee serialization exists for.
func TestRoundTrippedTraceSimulatesIdentically(t *testing.T) {
	tr := sampleTrace(t).Trace
	var buf bytes.Buffer
	if err := WriteTrace(&buf, tr); err != nil {
		t.Fatal(err)
	}
	back, err := ReadTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.SimConfig{Rows: 128, PresetOutputs: true, Iterations: 20, RecompileEvery: 5, Seed: 9}
	strat := core.StrategyConfig{Within: 1, Between: 2, Hw: true} // RaxBs+Hw
	a, err := core.Simulate(tr, cfg, strat)
	if err != nil {
		t.Fatal(err)
	}
	b, err := core.Simulate(back, cfg, strat)
	if err != nil {
		t.Fatal(err)
	}
	if !a.Equal(b) {
		t.Error("round-tripped trace produced a different distribution")
	}
}

func TestReadTraceRejectsCorruption(t *testing.T) {
	tr := sampleTrace(t).Trace
	var buf bytes.Buffer
	if err := WriteTrace(&buf, tr); err != nil {
		t.Fatal(err)
	}
	good := buf.String()

	cases := map[string]string{
		"bad version": strings.Replace(good, `"version":1`, `"version":99`, 1),
		"bad lanes":   strings.Replace(good, `"lanes":8`, `"lanes":0`, 1),
		"not json":    "{",
		"bad op kind": strings.Replace(good, "[3,", "[9,", 1),
	}
	for name, payload := range cases {
		if _, err := ReadTrace(strings.NewReader(payload)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestDistRoundTrip(t *testing.T) {
	d := core.NewWriteDist(4, 3)
	for i := range d.Counts {
		d.Counts[i] = uint64(i * 7)
	}
	d.Iterations = 100
	d.StepsPerIteration = 999
	var buf bytes.Buffer
	if err := WriteDist(&buf, d); err != nil {
		t.Fatal(err)
	}
	back, err := ReadDist(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !back.Equal(d) || back.Iterations != 100 || back.StepsPerIteration != 999 {
		t.Error("distribution round trip mismatch")
	}
}

func TestReadDistRejectsCorruption(t *testing.T) {
	d := core.NewWriteDist(2, 2)
	var buf bytes.Buffer
	if err := WriteDist(&buf, d); err != nil {
		t.Fatal(err)
	}
	good := buf.String()
	cases := map[string]string{
		"bad version": strings.Replace(good, `"version":1`, `"version":2`, 1),
		"bad shape":   strings.Replace(good, `"rows":2`, `"rows":3`, 1),
		"zero dims":   strings.Replace(good, `"rows":2`, `"rows":0`, 1),
		"not json":    "nope",
		// rows×lanes wraps to 0 in 64-bit arithmetic.
		"overflowing dims": `{"version":1,"rows":4611686018427387904,"lanes":4,"counts":[]}`,
	}
	for name, payload := range cases {
		if _, err := ReadDist(strings.NewReader(payload)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

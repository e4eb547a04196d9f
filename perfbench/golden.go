package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"os"
	"strconv"
)

// goldenJSON holds, per workload, every output of a default-seed run.
//
//go:embed golden.json
var goldenJSON []byte

// outputs maps an output's name to its checksum or exact value.
type outputs map[string]string

// output records one output of the run. Every repetition of a job must
// produce the same value; a differing repeat counts as a wrong output.
func (r *result) output(key, value string) {
	if r.outputs == nil {
		r.outputs = outputs{}
	}
	if prev, ok := r.outputs[key]; ok && prev != value {
		r.wrong++
		r.notes = append(r.notes, fmt.Sprintf("output %s changed between repetitions: %s then %s", key, prev, value))
		return
	}
	r.outputs[key] = value
}

// fnvCounts is the FNV-64a checksum of a write distribution's per-cell
// counts, each as 8 little-endian bytes — the same checksum the job server
// reports as dist_fnv.
func fnvCounts(counts []uint64) string {
	h := fnv.New64a()
	buf := make([]byte, 8*4096)
	for len(counts) > 0 {
		n := min(len(counts), 4096)
		for i, c := range counts[:n] {
			for k := 0; k < 8; k++ {
				buf[8*i+k] = byte(c >> (8 * k))
			}
		}
		_, _ = h.Write(buf[:8*n]) // hash writes cannot fail
		counts = counts[n:]
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// exact formats a float so that it parses back to the same bits.
func exact(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// checkGolden compares a default-seed run's outputs with golden.json. A
// missing, extra or differing output marks the run's outputs wrong.
func checkGolden(name string, seed int64, r *result) error {
	if seed != defaultSeed {
		return nil
	}
	var all map[string]outputs
	if err := json.Unmarshal(goldenJSON, &all); err != nil {
		return fmt.Errorf("golden.json: %w", err)
	}
	want := all[name]
	if len(want) == 0 {
		r.invalid = append(r.invalid, "golden.json has no outputs for this workload")
		return nil
	}
	bad := 0
	for k, v := range want {
		if got, ok := r.outputs[k]; !ok || got != v {
			bad++
			if bad <= 5 {
				r.notes = append(r.notes, fmt.Sprintf("golden mismatch %s: got %q, want %q", k, got, v))
			}
		}
	}
	for k := range r.outputs {
		if _, ok := want[k]; !ok {
			bad++
		}
	}
	r.wrong += bad
	r.notes = append(r.notes, fmt.Sprintf("golden check: %d outputs compared, %d mismatched", len(want), bad))
	return nil
}

// updateGolden rewrites path with this run's outputs as the goldens of the
// named workload, keeping the other workloads' entries.
func updateGolden(path, name string, out outputs) error {
	all := map[string]outputs{}
	if data, err := os.ReadFile(path); err == nil && len(data) > 0 {
		if err := json.Unmarshal(data, &all); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
	}
	all[name] = out
	data, err := json.MarshalIndent(all, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

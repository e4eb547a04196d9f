package main

import (
	"fmt"
	"io"
	"math"

	"pimendure/internal/faults"
	"pimendure/internal/mapping"
	"pimendure/internal/render"
	"pimendure/internal/report"
	"pimendure/pim"
)

// runFailureTimeline extends the paper's first-cell-failure lifetime
// (Eq. 4) into a full failure trajectory: the fraction of cells dead as
// iterations accumulate, for the static layout versus random balancing.
// Balancing trades a later first failure for a sharper collapse — every
// cell dies at nearly the same time.
func runFailureTimeline(cfg config) error {
	opt := cfg.Options()
	bench, err := pim.NewParallelMult(opt, 32)
	if err != nil {
		return err
	}
	rc := pim.RunConfig{Iterations: cfg.Iters, RecompileEvery: cfg.Recompile, Seed: cfg.Seed, Workers: cfg.Workers}
	static, err := pim.Run(bench, opt, rc, pim.StaticStrategy, pim.MRAM())
	if err != nil {
		return err
	}
	ra, err := pim.Run(bench, opt, rc, pim.Strategy{Within: pim.Random, Between: pim.Random}, pim.MRAM())
	if err != nil {
		return err
	}

	endurance := pim.MRAM().Endurance
	// Sample around the interesting region: from half the static first
	// failure to past the balanced collapse.
	first := endurance / static.MaxWritesPerIteration
	points := make([]float64, 0, 40)
	for f := 0.5; f <= 4.0; f *= 1.12 {
		points = append(points, first*f)
	}
	fs := faults.FailureTimeline(static.Dist.Counts, static.Dist.Iterations, endurance, points)
	fr := faults.FailureTimeline(ra.Dist.Counts, ra.Dist.Iterations, endurance, points)

	return writeFile(cfg, "e15_failure_timeline.csv", func(w io.Writer) error {
		return render.SeriesCSV(w, []string{"iterations", "failed_frac_StxSt", "failed_frac_RaxRa"},
			points, fs, fr)
	})
}

// runAccessCost reproduces Fig. 8's argument quantitatively: the cost of a
// standard byte-addressable access to a 32-bit operand after within-lane
// re-mapping, per strategy. Byte-shifting preserves byte count and bit
// order; random shuffling scatters the operand across the lane.
func runAccessCost(cfg config) error {
	operand := make([]int, 32) // a byte-aligned 32-bit variable at addresses 64..95
	for i := range operand {
		operand[i] = 64 + i
	}
	t := report.NewTable("E16 — Fig. 8: byte-access cost of a 32-bit operand after within-lane re-mapping",
		"strategy", "bytes touched (min/avg/max over 100 epochs)", "epochs with bit order preserved")
	for _, s := range mapping.Strategies() {
		sched := mapping.Schedule{Rows: cfg.Rows, Lanes: cfg.Lanes, Within: s, Between: mapping.Static, Seed: cfg.Seed}
		minB, maxB, sum, orderedN := math.MaxInt32, 0, 0, 0
		for epoch := 1; epoch <= 100; epoch++ {
			bytes, ordered := mapping.ByteAccessCost(sched.EpochWithin(epoch), operand)
			if bytes < minB {
				minB = bytes
			}
			if bytes > maxB {
				maxB = bytes
			}
			sum += bytes
			if ordered {
				orderedN++
			}
		}
		t.AddRow(s.String(), fmt.Sprintf("%d / %.1f / %d", minB, float64(sum)/100, maxB),
			fmt.Sprintf("%d/100", orderedN))
	}
	return emitTable(cfg, "e16_access_cost", t)
}

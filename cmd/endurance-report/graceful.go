package main

import (
	"pimendure/internal/faults"
	"pimendure/internal/report"
	"pimendure/pim"
)

// runGraceful extends §3.3: instead of declaring the array dead at the
// first cell failure, dead bit addresses remap onto spare rows until the
// program no longer fits. The allocation policy sets the trade-off: the
// rotating next-fit allocator (paper-like) occupies every row — balanced
// wear but no spares — while the compact lowest-first allocator leaves
// hundreds of spare rows to degrade into at the cost of a far hotter
// static distribution.
func runGraceful(cfg config) error {
	t := report.NewTable("E20 — remap-on-failure lifetime (32-bit multiply, StxSt, MRAM)",
		"allocator", "rows used", "spare rows", "first failure (iters)", "unusable (iters)", "extension", "remaps")
	for _, lowest := range []bool{false, true} {
		opt := cfg.Options()
		opt.LowestFirstAlloc = lowest
		bench, err := pim.NewParallelMult(opt, 32)
		if err != nil {
			return err
		}
		iters := cfg.Iters
		if iters > 5000 {
			iters = 5000 // the rate vector converges quickly under StxSt
		}
		res, err := pim.Run(bench, opt,
			pim.RunConfig{Iterations: iters, RecompileEvery: cfg.Recompile, Seed: cfg.Seed, Workers: cfg.Workers},
			pim.StaticStrategy, pim.MRAM())
		if err != nil {
			return err
		}
		// Per-logical-row hottest-cell write rates.
		rates := make([]float64, bench.Trace.LaneBits)
		for r := 0; r < bench.Trace.LaneBits; r++ {
			var maxC uint64
			for l := 0; l < res.Dist.Lanes; l++ {
				if c := res.Dist.At(r, l); c > maxC {
					maxC = c
				}
			}
			rates[r] = float64(maxC) / float64(iters)
		}
		gr, err := faults.GracefulLifetime(rates, cfg.Rows, pim.MRAM().Endurance)
		if err != nil {
			return err
		}
		name := "next-fit"
		if lowest {
			name = "lowest-first"
		}
		t.AddRow(name,
			report.Fixed(float64(bench.Trace.LaneBits), 0),
			report.Fixed(float64(cfg.Rows-bench.Trace.LaneBits), 0),
			report.Sci(gr.FirstFailureIters),
			report.Sci(gr.UnusableIters),
			report.Times(gr.ExtensionFactor()),
			report.Fixed(float64(gr.Remaps), 0))
	}
	return emitTable(cfg, "e20_graceful", t)
}

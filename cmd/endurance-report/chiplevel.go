package main

import (
	"fmt"

	"pimendure/internal/energy"
	"pimendure/internal/lifetime"
	"pimendure/internal/report"
	"pimendure/internal/system"
	"pimendure/pim"
)

// runEnergy prices the three kernels on each device energy model and
// contrasts the in-memory multiply with the conventional data-movement
// reference (§1's energy-efficiency motivation, made quantitative).
func runEnergy(cfg config) error {
	opt := pimOptions(cfg)
	benches, err := pim.PaperBenchmarks(opt)
	if err != nil {
		return err
	}
	t := report.NewTable("E17 — energy per benchmark iteration (preset-inclusive)",
		"benchmark", "technology", "reads (J)", "writes (J)", "total (J)", "EDP (J·s)")
	for _, b := range benches {
		steps := b.Trace.ComputeStats(opt.PresetOutputs).Steps
		for _, m := range energy.Models() {
			br, err := pim.EnergyPerIteration(b, opt, m)
			if err != nil {
				return err
			}
			t.AddRow(b.Name, m.Name, report.Sci(br.ReadJ), report.Sci(br.WriteJ),
				report.Sci(br.Total()), report.Sci(energy.EnergyDelayProduct(br, steps, 3e-9)))
		}
	}

	cmp := report.NewTable("E17 — one 32-bit multiply: in-memory vs conventional",
		"path", "energy (J)", "vs conventional")
	conv := energy.DefaultConv().MultiplyJ(32)
	cmp.AddRow("conventional (move 128 bits + core op)", report.Sci(conv), "1.00×")
	opt1 := pimOptions(cfg)
	opt1.Lanes = 1
	mult1, err := pim.NewParallelMult(opt1, 32)
	if err != nil {
		return err
	}
	for _, m := range energy.Models() {
		br, err := pim.EnergyPerIteration(mult1, opt1, m)
		if err != nil {
			return err
		}
		cmp.AddRow("PIM "+m.Name, report.Sci(br.Total()), report.Times(br.Total()/conv))
	}
	if err := emitTable(cfg, "e17_energy", t); err != nil {
		return err
	}
	return emitTable(cfg, "e17_mult_vs_cpu", cmp)
}

// runVariability quantifies the §4 uniform-endurance caveat: first-failure
// iterations under lognormal per-cell endurance, against the Eq. 4 value.
func runVariability(cfg config) error {
	opt := pimOptions(cfg)
	// A reduced array keeps the Monte Carlo (trials × written cells)
	// tractable while preserving the distribution's shape.
	opt.Lanes = 128
	bench, err := pim.NewParallelMult(opt, 32)
	if err != nil {
		return err
	}
	rc := pim.RunConfig{Iterations: 2000, RecompileEvery: cfg.recompile, Seed: cfg.seed, Workers: cfg.workers}
	t := report.NewTable("E18 — first failure under lognormal endurance variability (32-bit multiply, MRAM median 10¹²)",
		"strategy", "sigma", "Eq.4 iterations", "MC mean", "MC p5", "MC p95")
	for _, s := range []pim.Strategy{pim.StaticStrategy, {Within: pim.Random, Between: pim.Random}} {
		res, err := pim.Run(bench, opt, rc, s, pim.MRAM())
		if err != nil {
			return err
		}
		for _, sigma := range []float64{0.25, 0.5, 1.0} {
			vr, err := pim.LifetimeUnderVariability(res, pim.MRAM(), sigma, 60, cfg.seed)
			if err != nil {
				return err
			}
			t.AddRow(s.Name(), report.Fixed(sigma, 2), report.Sci(vr.DeterministicIterations),
				report.Sci(vr.MeanIterations), report.Sci(vr.P05), report.Sci(vr.P95))
		}
	}
	return emitTable(cfg, "e18_variability", t)
}

// runChip lifts Eq. 4 to the accelerator level (§4's replacement
// scenario): when must a many-array chip be replaced, with and without
// spare arrays, at server (100%) and embedded (1%) duty cycles.
func runChip(cfg config) error {
	opt := pimOptions(cfg)
	bench, err := pim.NewParallelMult(opt, 32)
	if err != nil {
		return err
	}
	rc := pim.RunConfig{Iterations: cfg.iters, RecompileEvery: cfg.recompile, Seed: cfg.seed, Workers: cfg.workers}
	res, err := pim.Run(bench, opt, rc,
		pim.Strategy{Within: pim.Random, Between: pim.Random, Hw: true}, pim.MRAM())
	if err != nil {
		return err
	}
	t := report.NewTable(
		fmt.Sprintf("E19 — accelerator replacement time (1024 arrays, per-array life %.1f days, σ=0.3)", res.Lifetime.Days()),
		"spare arrays", "duty cycle", "mean (days)", "p5 (days)", "p95 (days)")
	for _, spare := range []float64{0, 0.1} {
		for _, duty := range []float64{1.0, 0.01} {
			sc := system.Config{Arrays: 1024, SpareFraction: spare, DutyCycle: duty, Sigma: 0.3}
			est, err := system.ChipLifetime(res.Lifetime.Seconds, sc, 400, cfg.seed)
			if err != nil {
				return err
			}
			t.AddRow(report.Pct(spare, 0), report.Pct(duty, 0),
				report.Fixed(est.MeanSeconds/lifetime.SecondsPerDay, 1),
				report.Fixed(est.P05/lifetime.SecondsPerDay, 1),
				report.Fixed(est.P95/lifetime.SecondsPerDay, 1))
		}
	}
	return emitTable(cfg, "e19_chip_lifetime", t)
}

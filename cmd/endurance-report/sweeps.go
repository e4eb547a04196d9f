package main

import (
	"fmt"
	"io"

	"pimendure/internal/device"
	"pimendure/internal/lifetime"
	"pimendure/internal/report"
	"pimendure/internal/stats"
	"pimendure/pim"
)

// paperFigs labels pim.PaperBenchmarks' kernels (multiplication,
// convolution, dot-product) by their heatmap figures.
var paperFigs = []string{"fig14", "fig15", "fig16"}

// runSweeps produces the heart of the evaluation: per benchmark, the 18
// write-distribution heatmaps (Figs. 14–16), the lifetime-improvement
// ranking (Fig. 17), Table 3's utilization/improvement summary, and the
// E14 technology sweep.
func runSweeps(cfg config) error {
	opt := cfg.Options()
	benches, err := pim.PaperBenchmarks(opt)
	if err != nil {
		return err
	}
	rc := cfg.RunConfig()

	table3 := report.NewTable("Table 3 — lane utilization and best lifetime improvement",
		"benchmark", "avg lane utilization", "lifetime improvement", "best config",
		"StxSt days (MRAM)", "best days (MRAM)")
	e14 := report.NewTable("E14 — lifetime in days across device technologies",
		"benchmark", "technology", "endurance", "StxSt days", "best-balanced days")

	for i, b := range benches {
		fig := paperFigs[i]
		results, err := pim.Sweep(b, opt, rc, nil, pim.MRAM())
		if err != nil {
			return err
		}
		imps, err := pim.Improvements(results)
		if err != nil {
			return err
		}

		// Heatmaps + per-config distribution statistics.
		summary := report.NewTable(
			fmt.Sprintf("%s — %s write distribution statistics (%d iterations, recompile every %d)",
				fig, b.Name, cfg.Iters, cfg.Recompile),
			"config", "max/iter", "max/mean", "CoV", "Gini")
		var giniWork []float64
		for _, r := range results {
			grid, err := pim.Heatmap(r.Dist, cfg.heatDim)
			if err != nil {
				return err
			}
			name := fmt.Sprintf("%s_%s", fig, r.Strategy.Name())
			if err := writeFile(cfg, name+".png", func(w io.Writer) error {
				return pim.WriteHeatmapPNG(w, grid, cfg.heatScale)
			}); err != nil {
				return err
			}
			if err := writeFile(cfg, name+".pgm", func(w io.Writer) error {
				return pim.WriteHeatmapPGM(w, grid)
			}); err != nil {
				return err
			}
			// Summarize fuses the CoV scan; GiniReuse sorts all 18 configs'
			// distributions in one reused scratch buffer.
			var gini float64
			gini, giniWork = stats.GiniReuse(r.Dist.Counts, giniWork)
			summary.AddRow(r.Strategy.Name(),
				report.Fixed(r.MaxWritesPerIteration, 2),
				report.Fixed(r.Imbalance, 3),
				report.Fixed(stats.Summarize(r.Dist.Counts).CoV, 3),
				report.Fixed(gini, 3))
		}
		if err := emitTable(cfg, fig+"_summary", summary); err != nil {
			return err
		}

		// Fig. 17: improvement factors relative to St×St.
		figNum := map[string]string{"fig14": "fig17a", "fig15": "fig17b", "fig16": "fig17c"}[fig]
		f17 := report.NewTable(fmt.Sprintf("%s — %s lifetime improvement over StxSt", figNum, b.Name),
			"config", "improvement", "days (MRAM)")
		for _, im := range imps {
			f17.AddRow(im.Strategy.Name(), report.Times(im.Factor), report.Fixed(im.Result.Lifetime.Days(), 2))
		}
		if err := emitTable(cfg, figNum+"_"+b.Name, f17); err != nil {
			return err
		}

		// Table 3 row.
		var static *pim.Result
		for _, r := range results {
			if r.Strategy == pim.StaticStrategy {
				static = r
			}
		}
		best := imps[0]
		table3.AddRow(b.Name,
			report.Pct(static.Utilization, 2),
			report.Times(best.Factor),
			best.Strategy.Name(),
			report.Fixed(static.Lifetime.Days(), 2),
			report.Fixed(best.Result.Lifetime.Days(), 2))

		// E14: rescale the MRAM lifetimes to every technology (lifetime
		// is linear in endurance and per-op time, so no re-simulation).
		st := b.Trace.ComputeStats(true)
		for _, tech := range device.Technologies() {
			model := lifetime.Model{Endurance: tech.Endurance, StepSeconds: tech.SwitchSeconds}
			sd, err := model.Estimate(static.MaxWritesPerIteration, st.Steps)
			if err != nil {
				return err
			}
			bd, err := model.Estimate(best.Result.MaxWritesPerIteration, st.Steps)
			if err != nil {
				return err
			}
			e14.AddRow(b.Name, tech.Name, report.Sci(tech.Endurance),
				report.Fixed(sd.Days(), 3), report.Fixed(bd.Days(), 3))
		}
	}
	if err := emitTable(cfg, "table3", table3); err != nil {
		return err
	}
	return emitTable(cfg, "e14_technology", e14)
}

// runRecompileSweep reproduces §5's re-mapping frequency study: the
// Ra×Ra lifetime improvement as the recompile period varies from every
// 10 000 iterations down to every 10, showing saturation around every 50.
func runRecompileSweep(cfg config) error {
	opt := cfg.Options()
	benches, err := pim.PaperBenchmarks(opt)
	if err != nil {
		return err
	}
	periods := []int{10000, 1000, 500, 100, 50, 10}
	ra := pim.Strategy{Within: pim.Random, Between: pim.Random}

	t := report.NewTable("E11 — lifetime improvement vs recompile period (RaxRa, §5)",
		"benchmark", "recompile every", "improvement over StxSt", "max writes/iter")
	for _, b := range benches {
		static, err := pim.Run(b, opt,
			pim.RunConfig{Iterations: cfg.Iters, RecompileEvery: cfg.Recompile, Seed: cfg.Seed, Workers: cfg.Workers},
			pim.StaticStrategy, pim.MRAM())
		if err != nil {
			return err
		}
		for _, p := range periods {
			if p > cfg.Iters {
				continue
			}
			r, err := pim.Run(b, opt,
				pim.RunConfig{Iterations: cfg.Iters, RecompileEvery: p, Seed: cfg.Seed, Workers: cfg.Workers}, ra, pim.MRAM())
			if err != nil {
				return err
			}
			t.AddRow(b.Name, fmt.Sprint(p),
				report.Times(lifetime.Improvement(static.MaxWritesPerIteration, r.MaxWritesPerIteration)),
				report.Fixed(r.MaxWritesPerIteration, 3))
		}
	}
	return emitTable(cfg, "e11_recompile_sweep", t)
}

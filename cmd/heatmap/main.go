// Command heatmap runs a benchmark under a strategy configuration and
// renders its write-distribution heatmap (one panel of Figs. 14–16) to a
// PNG and/or PGM file.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"pimendure/internal/mapping"
	"pimendure/internal/obs"
	"pimendure/pim"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("heatmap: ")

	run := obs.NewRun("heatmap", flag.CommandLine)
	benchName := flag.String("bench", "mult", "benchmark at its paper parameters: mult, dot, conv, add, bnn")
	lanes := flag.Int("lanes", 1024, "array lanes")
	rows := flag.Int("rows", 1024, "array rows")
	within := flag.String("within", "St", "within-lane strategy: St, Ra, Bs")
	between := flag.String("between", "St", "between-lane strategy: St, Ra, Bs")
	hw := flag.Bool("hw", false, "hardware renaming")
	iters := flag.Int("iters", 10000, "iterations")
	recompile := flag.Int("recompile", 100, "software re-mapping period")
	dim := flag.Int("dim", 128, "heatmap resolution cap")
	scale := flag.Int("scale", 4, "PNG pixels per cell")
	pngPath := flag.String("png", "heatmap.png", "PNG output path (empty to skip)")
	pgmPath := flag.String("pgm", "", "PGM output path (empty to skip)")
	load := flag.String("load", "", "render a saved distribution (pimsim -dumpdist) instead of simulating")
	manifestDir := flag.String("out", "out", "directory for the run manifest")
	flag.Parse()
	if err := run.Start(); err != nil {
		log.Fatal(err)
	}
	finish := func() {
		if err := run.Finish(*manifestDir, map[string]any{
			"bench": *benchName, "lanes": *lanes, "rows": *rows,
			"within": *within, "between": *between, "hw": *hw,
			"iters": *iters, "recompile": *recompile,
			"dim": *dim, "scale": *scale, "load": *load,
		}, 1, os.Stdout); err != nil {
			log.Fatal(err)
		}
	}

	if *load != "" {
		f, err := os.Open(*load)
		if err != nil {
			log.Fatal(err)
		}
		dist, err := pim.LoadDist(f)
		f.Close()
		if err != nil {
			log.Fatal(err)
		}
		grid, err := pim.Heatmap(dist, *dim)
		if err != nil {
			log.Fatal(err)
		}
		emit(grid, *pngPath, *pgmPath, *scale)
		finish()
		return
	}

	opt := pim.Options{Lanes: *lanes, Rows: *rows, PresetOutputs: true, NANDBasis: true}
	bench, err := pim.NewKernel(opt, pim.KernelSpec{Name: *benchName})
	if err != nil {
		log.Fatal(err)
	}

	w, err := mapping.ParseStrategy(*within)
	if err != nil {
		log.Fatal(err)
	}
	b, err := mapping.ParseStrategy(*between)
	if err != nil {
		log.Fatal(err)
	}
	res, err := pim.Run(bench, opt,
		pim.RunConfig{Iterations: *iters, RecompileEvery: *recompile, Seed: 1},
		pim.Strategy{Within: w, Between: b, Hw: *hw}, pim.MRAM())
	if err != nil {
		log.Fatal(err)
	}
	grid, err := pim.Heatmap(res.Dist, *dim)
	if err != nil {
		log.Fatal(err)
	}
	emit(grid, *pngPath, *pgmPath, *scale)
	finish()
}

// emit renders a normalized grid to the requested files.
func emit(grid *pim.Grid, pngPath, pgmPath string, scale int) {
	write := func(path string, fn func(f *os.File) error) {
		if path == "" {
			return
		}
		f, err := os.Create(path)
		if err != nil {
			log.Fatal(err)
		}
		if err := fn(f); err != nil {
			log.Fatal(err)
		}
		if err := f.Close(); err != nil {
			log.Fatal(err)
		}
		fmt.Println("wrote", path)
	}
	write(pngPath, func(f *os.File) error { return pim.WriteHeatmapPNG(f, grid, scale) })
	write(pgmPath, func(f *os.File) error { return pim.WriteHeatmapPGM(f, grid) })
}

// Command heatmap runs a benchmark under a strategy configuration and
// renders its write-distribution heatmap (one panel of Figs. 14–16) to a
// PNG and/or PGM file.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"pimendure/internal/cliflag"
	"pimendure/internal/obs"
	"pimendure/pim"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("heatmap: ")

	run := obs.NewRun("heatmap", flag.CommandLine)
	f := cliflag.Flags{Bench: "mult", Lanes: 1024, Rows: 1024, Within: "St", Between: "St",
		Iters: 10000, Recompile: 100, Seed: 1}
	f.Register(flag.CommandLine, "bench", "lanes", "rows", "within", "between", "hw", "iters", "recompile")
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
		if err := run.Finish(*manifestDir, f.Seed, os.Stdout); err != nil {
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

	opt := f.Options()
	bench, err := pim.NewKernel(opt, f.Kernel())
	if err != nil {
		log.Fatal(err)
	}
	strat, err := f.Strategy()
	if err != nil {
		log.Fatal(err)
	}
	res, err := pim.Run(bench, opt, f.RunConfig(), strat, pim.MRAM())
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

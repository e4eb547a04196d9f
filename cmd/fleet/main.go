// Command fleet runs a fleet-survival study: B1/B10/B50 lifetime
// quantiles over a large simulated device population for every
// load-balancing strategy × device technology × endurance-σ combination
// of one benchmark, on the order-statistic fleet engine.
//
// The paper ranks its 18 configurations by the deterministic Eq. 4
// lifetime (Fig. 17), which under symmetric endurance variability is
// the fleet *median*. A fleet operator warranties the population tail
// instead — the B1 life, the time by which 1% of devices have failed —
// so the command reports both rankings and whether they agree:
//
//	out/fleet_survival.csv    one row per strategy × technology × σ
//	out/fleet_survival.json   the full study plus per-σ B1-vs-Eq.4 rankings
//
// Defaults reproduce the paper's setup (1024×1024 array, 32-bit
// multiplication, 100 000 iterations, recompile every 100) with one
// million devices per sweep point; -quick drops to a minutes-scale
// pass at reduced iteration count and population.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"time"

	"pimendure/internal/cliflag"
	"pimendure/internal/obs"
	"pimendure/internal/report"
	"pimendure/pim"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("fleet: ")

	run := obs.NewRun("fleet", flag.CommandLine)
	out := flag.String("out", "out", "output directory")
	f := cliflag.Flags{Bench: "mult", Lanes: 1024, Rows: 1024, Iters: 100000, Recompile: 100, Seed: 1}
	f.Register(flag.CommandLine, "benchmark", "bits", "lanes", "rows", "iters", "recompile", "seed", "workers")
	devices := flag.Int("devices", 1_000_000, "fleet population per sweep point")
	sigmaList := flag.String("sigmas", "0.3", "comma-separated lognormal endurance shapes")
	quick := flag.Bool("quick", false, "low-fidelity pass (2 000 iterations, 100 000 devices)")
	flag.Parse()
	if *quick {
		f.Iters = 2000
		*devices = 100_000
	}
	sigmas, err := cliflag.ParseSigmas(*sigmaList)
	if err != nil {
		log.Fatal(err)
	}
	if err := run.Start(); err != nil {
		log.Fatal(err)
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		log.Fatal(err)
	}

	opt := f.Options()
	bench, err := pim.NewKernel(opt, f.Kernel())
	if err != nil {
		log.Fatal(err)
	}
	fc := pim.FleetConfig{Devices: *devices, Sigmas: sigmas, Seed: f.Seed}

	start := time.Now()
	points, err := pim.Fleet(bench, opt, f.RunConfig(), nil, nil, fc)
	if err != nil {
		log.Fatal(err)
	}
	log.Printf("%d sweep points (%d strategies × %d technologies × %d σ), %s devices in %s",
		len(points), 18, 4, len(sigmas),
		report.Sci(float64(len(points))*float64(*devices)), time.Since(start).Round(time.Millisecond))

	t := pointsTable(bench.Name, points)
	if err := t.WriteMarkdown(os.Stdout); err != nil {
		log.Fatal(err)
	}
	if err := writeFile(*out, "fleet_survival.csv", t.WriteCSV); err != nil {
		log.Fatal(err)
	}

	rankings := rankBySigma(points, sigmas)
	for _, r := range rankings {
		agree := "agrees with"
		if !r.SameWinner {
			agree = "DIFFERS from"
		}
		log.Printf("σ=%.2f: best by B1 is %s, best by Eq.4 (Fig 17) is %s — B1 winner %s the mean-based ranking (full order equal: %v)",
			r.Sigma, r.WinnerB1, r.WinnerEq4, agree, r.SameOrder)
	}

	doc := studyDoc{
		Benchmark: bench.Name, Lanes: f.Lanes, Rows: f.Rows,
		Iterations: f.Iters, RecompileEvery: f.Recompile,
		Devices: *devices, Seed: f.Seed, Sigmas: sigmas,
		Points: flatten(points), Rankings: rankings,
	}
	if err := writeFile(*out, "fleet_survival.json", func(w io.Writer) error {
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		return enc.Encode(doc)
	}); err != nil {
		log.Fatal(err)
	}

	if err := run.Finish(*out, f.Seed, os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// studyDoc is the fleet_survival.json document.
type studyDoc struct {
	Benchmark      string      `json:"benchmark"`
	Lanes          int         `json:"lanes"`
	Rows           int         `json:"rows"`
	Iterations     int         `json:"iterations"`
	RecompileEvery int         `json:"recompile_every"`
	Devices        int         `json:"devices"`
	Seed           int64       `json:"seed"`
	Sigmas         []float64   `json:"sigmas"`
	Points         []jsonPoint `json:"points"`
	Rankings       []ranking   `json:"rankings"`
}

// jsonPoint is one sweep point flattened for the JSON artifact (paper
// labels instead of enum values, seconds precomputed).
type jsonPoint struct {
	Strategy   string  `json:"strategy"`
	Technology string  `json:"technology"`
	Sigma      float64 `json:"sigma"`
	Devices    int     `json:"devices"`
	Groups     int     `json:"groups"`
	Cells      int     `json:"cells"`
	Eq4        float64 `json:"eq4_iterations"`
	Mean       float64 `json:"mean_iterations"`
	B1         float64 `json:"b1_iterations"`
	B10        float64 `json:"b10_iterations"`
	B50        float64 `json:"b50_iterations"`
	B1Seconds  float64 `json:"b1_seconds"`
	B50Seconds float64 `json:"b50_seconds"`
}

func flatten(points []pim.FleetPoint) []jsonPoint {
	out := make([]jsonPoint, 0, len(points))
	for _, p := range points {
		out = append(out, jsonPoint{
			Strategy:   p.Strategy.Name(),
			Technology: p.Technology.Name,
			Sigma:      p.Sigma,
			Devices:    p.Devices,
			Groups:     p.Groups,
			Cells:      p.Cells,
			Eq4:        p.DeterministicIterations,
			Mean:       p.MeanIterations,
			B1:         p.Quantiles[0],
			B10:        p.Quantiles[1],
			B50:        p.Quantiles[2],
			B1Seconds:  p.Seconds(p.Quantiles[0]),
			B50Seconds: p.Seconds(p.Quantiles[2]),
		})
	}
	return out
}

// ranking compares the fleet-tail (B1) strategy ordering against the
// paper's deterministic Eq. 4 / Fig. 17 ordering at one σ. Thanks to
// common random numbers a technology change only rescales every sample,
// so the orderings are technology-independent and one comparison per σ
// suffices.
type ranking struct {
	Sigma float64 `json:"sigma"`
	// ByB1 and ByEq4 list strategy labels best-first.
	ByB1  []string `json:"by_b1"`
	ByEq4 []string `json:"by_eq4"`
	// WinnerB1/WinnerEq4 are the respective front-runners; SameWinner
	// and SameOrder summarize the agreement.
	WinnerB1   string `json:"winner_b1"`
	WinnerEq4  string `json:"winner_eq4"`
	SameWinner bool   `json:"same_winner"`
	SameOrder  bool   `json:"same_order"`
}

// rankBySigma builds the per-σ B1-vs-Eq.4 ranking comparison from the
// first technology's points (the ordering is technology-invariant).
func rankBySigma(points []pim.FleetPoint, sigmas []float64) []ranking {
	out := make([]ranking, 0, len(sigmas))
	firstTech := points[0].Technology.Name
	for _, sigma := range sigmas {
		var sub []pim.FleetPoint
		for _, p := range points {
			if p.Sigma == sigma && p.Technology.Name == firstTech {
				sub = append(sub, p)
			}
		}
		byB1 := append([]pim.FleetPoint(nil), sub...)
		sort.SliceStable(byB1, func(i, j int) bool { return byB1[i].Quantiles[0] > byB1[j].Quantiles[0] })
		byEq4 := append([]pim.FleetPoint(nil), sub...)
		sort.SliceStable(byEq4, func(i, j int) bool {
			return byEq4[i].DeterministicIterations > byEq4[j].DeterministicIterations
		})
		r := ranking{Sigma: sigma, SameOrder: true}
		for i := range byB1 {
			r.ByB1 = append(r.ByB1, byB1[i].Strategy.Name())
			r.ByEq4 = append(r.ByEq4, byEq4[i].Strategy.Name())
			if byB1[i].Strategy != byEq4[i].Strategy {
				r.SameOrder = false
			}
		}
		r.WinnerB1, r.WinnerEq4 = r.ByB1[0], r.ByEq4[0]
		r.SameWinner = r.WinnerB1 == r.WinnerEq4
		out = append(out, r)
	}
	return out
}

// pointsTable flattens the study into the fleet_survival table.
func pointsTable(benchName string, points []pim.FleetPoint) *report.Table {
	t := report.NewTable(
		fmt.Sprintf("Fleet survival — %s: first-failure B-lives (iterations) vs the Eq. 4 deterministic value", benchName),
		"strategy", "technology", "sigma", "devices", "groups", "cells",
		"Eq.4 iterations", "mean", "B1", "B10", "B50", "B1 (s)", "B50 (s)")
	for _, p := range points {
		t.AddRow(p.Strategy.Name(), p.Technology.Name, report.Fixed(p.Sigma, 2),
			strconv.Itoa(p.Devices), strconv.Itoa(p.Groups), strconv.Itoa(p.Cells),
			report.Sci(p.DeterministicIterations), report.Sci(p.MeanIterations),
			report.Sci(p.Quantiles[0]), report.Sci(p.Quantiles[1]), report.Sci(p.Quantiles[2]),
			report.Sci(p.Seconds(p.Quantiles[0])), report.Sci(p.Seconds(p.Quantiles[2])))
	}
	return t
}

// writeFile creates a file under dir and streams fn to it.
func writeFile(dir, name string, fn func(io.Writer) error) error {
	path := filepath.Join(dir, name)
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := fn(f); err != nil {
		f.Close()
		return fmt.Errorf("%s: %w", path, err)
	}
	return f.Close()
}

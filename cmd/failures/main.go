// Command failures regenerates Fig. 11b (usable bits per lane versus
// failed cells in the array) and the §3.3 lane-set partitioning analysis.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"pimendure/internal/cliflag"
	"pimendure/internal/faults"
	"pimendure/internal/obs"
	"pimendure/internal/report"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("failures: ")

	run := obs.NewRun("failures", flag.CommandLine)
	f := cliflag.Flags{Lanes: 1024, Rows: 256, Seed: 1}
	f.Register(flag.CommandLine, "lanes", "rows", "seed")
	trials := flag.Int("trials", 500, "Monte Carlo trials")
	manifestDir := flag.String("out", "out", "directory for the run manifest")
	flag.Parse()
	if err := run.Start(); err != nil {
		log.Fatal(err)
	}

	t := report.NewTable(fmt.Sprintf("Fig. 11b — usable fraction of each lane, %d-lane array", f.Lanes),
		"failed cells (%)", "usable (Monte Carlo)", "usable (closed form)")
	fracs := []float64{0, 0.0005, 0.001, 0.002, 0.005, 0.01, 0.02, 0.05}
	pts, err := faults.UsableCurve(f.Rows, f.Lanes, fracs, *trials, f.Seed)
	if err != nil {
		log.Fatal(err)
	}
	for _, p := range pts {
		t.AddRow(report.Pct(p.FailedFrac, 2), report.Fixed(p.UsableMC, 4), report.Fixed(p.UsableClosed, 4))
	}
	if err := t.WriteMarkdown(os.Stdout); err != nil {
		log.Fatal(err)
	}

	ls := report.NewTable("§3.3 — lane-set partitioning (0.5% of cells failed)",
		"sets", "usable fraction", "latency factor", "effective capacity")
	failed := f.Rows * f.Lanes / 200
	for _, sets := range []int{1, 2, 4, 8} {
		res, err := faults.LaneSets(f.Rows, f.Lanes, sets, failed, *trials, f.Seed)
		if err != nil {
			log.Fatal(err)
		}
		ls.AddRow(fmt.Sprint(sets), report.Fixed(res.UsableFrac, 4),
			fmt.Sprint(res.LatencyFactor), report.Fixed(res.EffectiveCapacity, 4))
	}
	if err := ls.WriteMarkdown(os.Stdout); err != nil {
		log.Fatal(err)
	}

	if err := run.Finish(*manifestDir, f.Seed, os.Stdout); err != nil {
		log.Fatal(err)
	}
}

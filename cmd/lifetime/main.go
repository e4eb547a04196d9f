// Command lifetime is the analytic calculator behind §3.1: Eq. 1 (total
// operations before complete break-down under perfect balancing), Eq. 2
// (wall-clock time to break-down at full utilization), and Eq. 4 applied
// to a user-supplied hottest-cell write rate — swept across the device
// technologies of §2.1.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"pimendure/internal/cliflag"
	"pimendure/internal/device"
	"pimendure/internal/lifetime"
	"pimendure/internal/obs"
	"pimendure/internal/report"
	"pimendure/internal/synth"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("lifetime: ")

	run := obs.NewRun("lifetime", flag.CommandLine)
	f := cliflag.Flags{Lanes: 1024, Rows: 1024, Bits: 32}
	f.Register(flag.CommandLine, "rows", "lanes", "bits")
	flag.Lookup("bits").Usage = "multiply precision for the Eq. 1 write cost"
	maxWrites := flag.Float64("maxwrites", 0, "Eq. 4: hottest cell's writes per iteration (0 = skip)")
	steps := flag.Int("steps", 0, "Eq. 4: sequential steps per iteration")
	manifestDir := flag.String("out", "out", "directory for the run manifest")
	flag.Parse()
	if err := run.Start(); err != nil {
		log.Fatal(err)
	}

	writesPerMult := float64(synth.MultiplierGates(synth.NAND, f.Bits))
	t := report.NewTable(
		fmt.Sprintf("Perfectly-balanced bounds for a %d×%d array (%d-bit multiply = %.0f writes)",
			f.Rows, f.Lanes, f.Bits, writesPerMult),
		"technology", "endurance", "Eq.1 total mults", "Eq.2 time to break-down")
	for _, tech := range device.Technologies() {
		secs := lifetime.UpperBoundSeconds(f.Rows, f.Lanes, tech.Endurance, tech.SwitchSeconds)
		t.AddRow(tech.Name, report.Sci(tech.Endurance),
			report.Sci(lifetime.UpperBoundOps(f.Rows, f.Lanes, tech.Endurance, writesPerMult)),
			humanTime(secs))
	}
	if err := t.WriteMarkdown(os.Stdout); err != nil {
		log.Fatal(err)
	}

	if *maxWrites > 0 && *steps > 0 {
		t4 := report.NewTable("Eq. 4 lifetime for the supplied write distribution",
			"technology", "iterations to first failure", "lifetime")
		for _, tech := range device.Technologies() {
			m := lifetime.Model{Endurance: tech.Endurance, StepSeconds: tech.SwitchSeconds}
			r, err := m.Estimate(*maxWrites, *steps)
			if err != nil {
				log.Fatal(err)
			}
			t4.AddRow(tech.Name, report.Sci(r.IterationsToFailure), humanTime(r.Seconds))
		}
		if err := t4.WriteMarkdown(os.Stdout); err != nil {
			log.Fatal(err)
		}
	}

	if err := run.Finish(*manifestDir, 0, os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// humanTime renders seconds in the most readable unit.
func humanTime(secs float64) string {
	switch {
	case secs < 120:
		return fmt.Sprintf("%.1f s", secs)
	case secs < 2*3600:
		return fmt.Sprintf("%.1f min", secs/60)
	case secs < 2*86400:
		return fmt.Sprintf("%.1f h", secs/3600)
	case secs < 2*365*86400:
		return fmt.Sprintf("%.2f days", secs/86400)
	default:
		return fmt.Sprintf("%.2f years", secs/(365*86400))
	}
}

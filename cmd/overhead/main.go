// Command overhead regenerates Table 2: the relative cost of
// memory-access-aware randomized shuffling (§3.2) — extra COPY gates over
// computation gates — for multiplication and addition across precisions,
// cross-checked against circuits actually synthesized by the library.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strconv"
	"strings"

	"pimendure/internal/obs"
	"pimendure/internal/program"
	"pimendure/internal/report"
	"pimendure/internal/synth"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("overhead: ")

	run := obs.NewRun("overhead", flag.CommandLine)
	precisions := flag.String("bits", "4,8,16,32,64", "comma-separated precisions")
	manifestDir := flag.String("out", "out", "directory for the run manifest")
	flag.Parse()
	if err := run.Start(); err != nil {
		log.Fatal(err)
	}

	var bits []int
	for _, s := range strings.Split(*precisions, ",") {
		b, err := strconv.Atoi(strings.TrimSpace(s))
		if err != nil || b < 2 {
			log.Fatalf("bad precision %q", s)
		}
		bits = append(bits, b)
	}

	t := report.NewTable("Table 2 — extra COPY gates for memory-access-aware shuffling",
		"bit precision", "mult overhead", "add overhead", "mult gates (analytic)",
		"mult gates (synthesized)", "add gates (analytic)", "add gates (synthesized)")
	for _, b := range bits {
		t.AddRow(fmt.Sprint(b),
			report.Pct(synth.ShuffleOverhead(synth.ShuffleMult, b), 2),
			report.Pct(synth.ShuffleOverhead(synth.ShuffleAdd, b), 2),
			fmt.Sprint(synth.ComputeGates(synth.ShuffleMult, b)),
			fmt.Sprint(synthesizedGates(b, true)),
			fmt.Sprint(synth.ComputeGates(synth.ShuffleAdd, b)),
			fmt.Sprint(synthesizedGates(b, false)))
	}
	if err := t.WriteMarkdown(os.Stdout); err != nil {
		log.Fatal(err)
	}

	if err := run.Finish(*manifestDir, 0, os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// synthesizedGates counts gates in an actually-built Mixed2 circuit.
func synthesizedGates(b int, mult bool) int {
	bld := program.NewBuilder(1, 64*b*b+256)
	x := bld.AllocN(b)
	y := bld.AllocN(b)
	if mult {
		synth.Dadda(bld, synth.Mixed2, x, y)
	} else {
		synth.RippleCarryAdd(bld, synth.Mixed2, x, y)
	}
	n := 0
	for _, op := range bld.Trace().Ops {
		if op.Kind == program.OpGate {
			n++
		}
	}
	return n
}

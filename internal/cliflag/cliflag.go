// Package cliflag is the option surface the command-line tools share:
// one definition of each common flag (-lanes, -rows, -bench, -bits,
// -iters, -recompile, -seed, -workers, -sample, -within, -between, -hw,
// -tech) and one mapping of their values onto pim.Options,
// pim.KernelSpec, pim.RunConfig and pim.Strategy (-tech goes straight
// to pim.TechnologyNamed). A CLI puts its defaults in a Flags value,
// registers the flags it takes, parses, and reads the mapped options;
// a field whose flag it does not register keeps its default.
package cliflag

import (
	"flag"
	"fmt"
	"math"
	"strconv"
	"strings"

	"pimendure/pim"
)

// Flags holds the values of the shared flags: the defaults before
// parsing, the parsed values after.
type Flags struct {
	Lanes, Rows      int    // -lanes, -rows
	Bench            string // -bench or -benchmark
	Bits             int    // -bits; 0 is the kernel's paper precision
	Iters, Recompile int    // -iters, -recompile
	Seed             int64  // -seed
	Workers, Sample  int    // -workers, -sample
	Within, Between  string // -within, -between
	Hw               bool   // -hw
	Tech             string // -tech
}

// Register defines the named shared flags on fs, each defaulting to the
// field's current value. The kernel flag registers under either name,
// "bench" or "benchmark". A CLI that gives a flag a narrower meaning
// rewrites its fs.Lookup(name).Usage. An unknown name panics: it is a
// programming error in the calling CLI.
func (f *Flags) Register(fs *flag.FlagSet, names ...string) {
	for _, name := range names {
		switch name {
		case "lanes":
			fs.IntVar(&f.Lanes, name, f.Lanes, "array lanes (columns)")
		case "rows":
			fs.IntVar(&f.Rows, name, f.Rows, "array rows (bit addresses per lane)")
		case "bench", "benchmark":
			fs.StringVar(&f.Bench, name, f.Bench, "kernel: mult, dot, conv, add, bnn")
		case "bits":
			fs.IntVar(&f.Bits, name, f.Bits, "operand precision (0 = the kernel's paper precision: 32, or 8 for conv)")
		case "iters":
			fs.IntVar(&f.Iters, name, f.Iters, "benchmark iterations")
		case "recompile":
			fs.IntVar(&f.Recompile, name, f.Recompile, "software re-mapping period in iterations")
		case "seed":
			fs.Int64Var(&f.Seed, name, f.Seed, "random seed")
		case "workers":
			fs.IntVar(&f.Workers, name, f.Workers, "worker goroutines (0 = GOMAXPROCS); results are identical for any value")
		case "sample":
			fs.IntVar(&f.Sample, name, f.Sample, "record wear telemetry every N recompile epochs (0 disables; series exported on exit, live at -serve /series and /wear.png)")
		case "within":
			fs.StringVar(&f.Within, name, f.Within, "within-lane strategy: St, Ra, Bs")
		case "between":
			fs.StringVar(&f.Between, name, f.Between, "between-lane strategy: St, Ra, Bs")
		case "hw":
			fs.BoolVar(&f.Hw, name, f.Hw, "enable hardware free-bit renaming")
		case "tech":
			fs.StringVar(&f.Tech, name, f.Tech, "technology: MRAM, RRAM, PCM, MRAM-projected")
		default:
			panic("cliflag: no shared flag -" + name)
		}
	}
}

// Options maps the geometry onto the paper's array options: output
// presets on, NAND basis, next-fit allocation.
func (f *Flags) Options() pim.Options {
	opt := pim.DefaultOptions()
	opt.Lanes, opt.Rows = f.Lanes, f.Rows
	return opt
}

// Kernel maps -bench and -bits onto a catalogue kernel.
func (f *Flags) Kernel() pim.KernelSpec {
	return pim.KernelSpec{Name: f.Bench, Bits: f.Bits}
}

// RunConfig maps the run flags onto a pim.RunConfig.
func (f *Flags) RunConfig() pim.RunConfig {
	return pim.RunConfig{
		Iterations:     f.Iters,
		RecompileEvery: f.Recompile,
		Seed:           f.Seed,
		Workers:        f.Workers,
		SampleEvery:    f.Sample,
	}
}

// Strategy maps -within, -between and -hw onto a load-balancing
// configuration through the paper-label parser, so the flags accept
// the spellings a label does ("Ra", "random", "RA").
func (f *Flags) Strategy() (pim.Strategy, error) {
	label := f.Within + "x" + f.Between
	if f.Hw {
		label += "+Hw"
	}
	return pim.StrategyNamed(label)
}

// ParseSigmas parses a comma-separated list of lognormal endurance
// shapes ("0.3,0.6"). Every entry must be a finite non-negative number,
// and the list must not be empty.
func ParseSigmas(list string) ([]float64, error) {
	var out []float64
	for _, field := range strings.Split(list, ",") {
		field = strings.TrimSpace(field)
		if field == "" {
			continue
		}
		v, err := strconv.ParseFloat(field, 64)
		if err != nil || !(v >= 0) || math.IsInf(v, 1) {
			return nil, fmt.Errorf("bad sigma %q (want a non-negative float list like \"0.3,0.6\")", field)
		}
		out = append(out, v)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("empty sigma list")
	}
	return out, nil
}

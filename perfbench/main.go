// Command perfbench is the repository benchmark: one process that calls the
// public functions of pim, internal/core, internal/fleet, internal/stats,
// internal/system and internal/serve on seeded inputs, times those calls
// from outside, checks every output, and prints the end-to-end metrics
// (untraced run) or the per-layer breakdown (traced run) as the last line
// of standard output. See README.md for the workloads and metrics.
//
//	bash perfbench/run.sh --workload paper-sweep --seed 1 --seconds 20 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"pimendure/internal/obs"
)

// defaultSeed is the seed whose outputs are checked against golden.json.
const defaultSeed = 1

// env is what every workload receives: its inputs come from seed alone.
type env struct {
	seed    int64
	seconds float64
	traced  bool
	workers int
	tr      *tracer
}

// result is what a workload measured and checked.
type result struct {
	setups     []float64 // seconds of each set-up
	jobsMS     []float64 // latency of every job of the timed phase
	good       int       // jobs that finished correct within the latency limit
	goodSpan   float64   // seconds the goodput is counted over
	attempted  int       // jobs attempted
	failed     int       // jobs that failed or were shed
	wrong      int       // outputs that did not match
	simOps     float64   // simulated gate ops of the timed phase
	simSeconds float64   // host seconds those ops took
	mem        memStats  // Go heap during the timed phase
	outputs    outputs   // checksums compared against golden.json
	layer      map[string]float64
	notes      []string // extra lines for the human-readable table
	invalid    []string // reasons the measurement cannot be trusted
}

// workloads maps a workload name to its implementation.
var workloads = map[string]func(*env) (*result, error){
	"paper-sweep":    paperSweep,
	"serve-mixed":    serveMixed,
	"fleet-survival": fleetSurvival,
	"stepped-banks":  steppedBanks,
}

func main() {
	name := flag.String("workload", "", "workload to run: paper-sweep, serve-mixed, fleet-survival or stepped-banks")
	seed := flag.Int64("seed", defaultSeed, "seed the inputs are generated from")
	seconds := flag.Float64("seconds", 10, "length of the timed phase in seconds")
	trace := flag.Int("trace", 0, "1 records spans and prints the per-layer metrics instead of the end-to-end ones")
	out := flag.String("out", ".bench_build", "directory for the span dump of a traced run")
	update := flag.String("update-golden", "", "write this run's outputs as the goldens of its workload to this file (default seed only)")
	flag.Parse()

	run, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (one of %s), --seconds > 0 and --trace 0|1\n", strings.Join(workloadNames(), ", "))
		os.Exit(2)
	}
	e := &env{seed: *seed, seconds: *seconds, traced: *trace == 1, workers: runtime.NumCPU(), tr: newTracer()}
	if e.workers > runtime.GOMAXPROCS(0) {
		e.workers = runtime.GOMAXPROCS(0)
	}
	r, err := run(e)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *name, err)
		os.Exit(1)
	}
	if *update == "" {
		if err := checkGolden(*name, e.seed, r); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
			os.Exit(1)
		}
	} else {
		if e.seed != defaultSeed {
			fmt.Fprintf(os.Stderr, "perfbench: goldens are for seed %d only\n", defaultSeed)
			os.Exit(2)
		}
		if err := updateGolden(*update, *name, r.outputs); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
			os.Exit(1)
		}
	}
	if e.traced {
		obs.Disable()
		e.tr.enable(false)
		path := filepath.Join(*out, fmt.Sprintf("spans_%s_%d.json", *name, e.seed))
		if err := os.MkdirAll(*out, 0o755); err == nil {
			err = writeSpans(path, e.tr.snapshot())
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: writing spans: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("spans written to %s\n", path)
	}
	report(*name, e, r)
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// endToEnd derives the untraced metrics every workload reports.
func endToEnd(r *result) (map[string]metric, float64) {
	p99, pct := tail(r.jobsMS)
	return map[string]metric{
		"setup_s":       {median(r.setups), "s"},
		"sim_ops_per_s": {ratio(r.simOps, r.simSeconds), "ops/s"},
		"job_p50_ms":    {median(r.jobsMS), "ms"},
		"job_p99_ms":    {p99, "ms"},
		"goodput_rps":   {ratio(float64(r.good), r.goodSpan), "jobs/s"},
		"peak_heap_mb":  {r.mem.peakMB, "MB"},
	}, pct
}

// report prints a human-readable table and, as the last line, the JSON
// result object.
func report(name string, e *env, r *result) {
	failed := r.failed + r.wrong
	if r.wrong > 0 {
		failed = r.attempted
	}
	if failed > r.attempted {
		failed = r.attempted
	}
	e2e, pct := endToEnd(r)
	fmt.Printf("workload %s  seed %d  seconds %g  trace %v  workers %d\n", name, e.seed, e.seconds, e.traced, e.workers)
	fmt.Printf("jobs %d attempted, %d failed or shed, %d wrong outputs; error_frac %.4f (ratio)\n",
		r.attempted, r.failed, r.wrong, ratio(float64(failed), float64(r.attempted)))
	fmt.Printf("job_p99_ms is p%.1f of %d job latencies\n", pct, len(r.jobsMS))
	for _, n := range r.notes {
		fmt.Println(n)
	}
	for _, why := range r.invalid {
		fmt.Printf("INVALID: %s\n", why)
	}
	metrics := e2e
	if e.traced {
		metrics = map[string]metric{}
		for _, m := range perLayer {
			metrics[m.name] = metric{r.layer[m.name], m.unit}
		}
	}
	printTable(metrics)
	if e.traced {
		fmt.Println("end-to-end figures of this traced run (for reference only):")
		printTable(e2e)
	}
	out := struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{r.wrong == 0 && len(r.invalid) == 0, max(r.attempted, 1), failed, metrics}
	b, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(b))
}

func printTable(ms map[string]metric) {
	var names []string
	for n := range ms {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("  %-32s %16.6g %s\n", n, ms[n].Value, ms[n].Unit)
	}
}

// layerSpec names a per-layer metric and its unit.
type layerSpec struct{ name, unit string }

// perLayer lists every metric of a traced run. A layer a workload does not
// exercise reads 0.
var perLayer = []layerSpec{
	{"workloads.compile_s", "s"},
	{"core.plan_s", "s"},
	{"core.sim_sw_s.mult", "s"},
	{"core.sim_sw_s.conv", "s"},
	{"core.sim_sw_s.dot", "s"},
	{"core.sim_hw_s.mult", "s"},
	{"core.sim_hw_s.conv", "s"},
	{"core.sim_hw_s.dot", "s"},
	{"core.sampled_x", "x"},
	{"core.hw.saved_frac", "ratio"},
	{"core.sw.memo_hit_frac", "ratio"},
	{"core.arena_hit_frac", "ratio"},
	{"pim.sweep_parallel_x", "x"},
	{"stats.summarize_s", "s"},
	{"system.stripe_s.round-robin", "s"},
	{"system.stripe_s.wear-aware", "s"},
	{"system.bank_sims", "count"},
	{"fleet.groups_s", "s"},
	{"fleet.table_s", "s"},
	{"fleet.draw_ns_per_device", "ns"},
	{"fleet.fallback_frac", "ratio"},
	{"fleet.devices_per_s", "devices/s"},
	{"serve.submit_ms.p50", "ms"},
	{"serve.submit_ms.p99", "ms"},
	{"serve.queue_wait_ms.p50", "ms"},
	{"serve.queue_wait_ms.p99", "ms"},
	{"serve.compute_ms.p50", "ms"},
	{"serve.compute_ms.p99", "ms"},
	{"serve.queue_depth_max", "jobs"},
	{"serve.cache_hit_frac", "ratio"},
	{"serve.coalesce_frac", "ratio"},
	{"serve.shed_frac", "ratio"},
	{"serve.repeat_frac", "ratio"},
	{"loadgen.lag_p99_ms", "ms"},
	{"loadgen.backlog_growth", "jobs"},
	{"pool.jobs_per_dispatch", "jobs"},
	{"go.alloc_mb", "MB"},
	{"go.gc_cycles", "count"},
	{"go.gc_pause_ms", "ms"},
	{"trace.overhead_x", "x"},
}

// elapsed is the seconds since t.
func elapsed(t time.Time) float64 { return time.Since(t).Seconds() }

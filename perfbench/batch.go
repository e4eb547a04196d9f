package main

import (
	"fmt"
	"runtime"
	"strings"
	"time"

	"pimendure/internal/core"
	"pimendure/internal/fleet"
	"pimendure/internal/obs"
	"pimendure/internal/stats"
	"pimendure/pim"
)

// Sizes of the batch workloads. All run at the paper's geometry
// (1024×1024, output presets, NAND basis) and recompile period; only the
// iteration count is shortened from the paper's 100 000 so that several
// repetitions fit in one timed phase.
const (
	recompileEvery  = 100
	sweepIterations = 2000     // paper-sweep, per kernel and strategy
	fleetIterations = 2000     // fleet-survival, per strategy simulation
	fleetDevices    = 1 << 20  // fleet-survival, devices per sweep point
	sampledIters    = 2000     // stepped-banks, sampled 18-strategy sweep
	sampleEvery     = 4        // stepped-banks, epochs between wear samples
	stripeIters     = 16 * 400 // stepped-banks, iterations striped over 16 banks
	batchLimit      = 30.0     // seconds; a batch job slower than this is not goodput
	setupsPerRun    = 9        // set-ups timed per run; setup_s is their median
	seriesPrefix    = "perfbench."
)

// Fleet sweep points: strategies × all technologies × sigmas.
var (
	fleetStrategies = []pim.Strategy{pim.StaticStrategy, {Within: pim.Random, Between: pim.ByteShift, Hw: true}}
	fleetSigmas     = []float64{0.3, 0.6}
	stripeStrategy  = pim.Strategy{Within: pim.Random, Between: pim.Random, Hw: true}
)

// batch is the set-up and plan state shared by the batch workloads.
type batch struct {
	opt     pim.Options
	cache   *pim.PlanCache
	benches []*pim.Benchmark
}

// setupBatch compiles the kernels, builds their plans in a fresh cache and
// runs warm, with spans around each call. It runs setupsPerRun times; the
// last state is kept for the timed phase.
func setupBatch(e *env, r *result, compile func(pim.Options) ([]*pim.Benchmark, error), warm func(*batch) error) (*batch, error) {
	var b *batch
	for i := 0; i < setupsPerRun; i++ {
		runtime.GC()
		sp := e.tr.start("setup", -1, "")
		t := time.Now()
		nb := &batch{opt: pim.DefaultOptions(), cache: pim.NewPlanCache(32)}
		csp := e.tr.start("workloads.compile", sp, "")
		benches, err := compile(nb.opt)
		e.tr.end(csp)
		if err != nil {
			return nil, err
		}
		nb.benches = benches
		for _, bench := range benches {
			psp := e.tr.start("core.plan", sp, bench.Name)
			nb.cache.Plan(bench, nb.opt)
			e.tr.end(psp)
		}
		wsp := e.tr.start("warmup", sp, "")
		err = warm(nb)
		e.tr.end(wsp)
		if err != nil {
			return nil, err
		}
		r.setups = append(r.setups, elapsed(t))
		e.tr.end(sp)
		b = nb
	}
	return b, nil
}

// runPhase repeats rep, one job of the workload, until seconds of wall
// time have passed. rep returns the seconds its facade calls took and the
// gate ops they simulated. A traced run spends the first half untraced and
// the second half traced, and compares the jobs of the two halves for
// trace.overhead_x.
func runPhase(e *env, r *result, rep func(traced bool) (seconds, ops float64, err error)) (tracedReps int, err error) {
	loop := func(seconds float64, traced bool) ([]float64, error) {
		var reps []float64
		t := time.Now()
		for len(reps) == 0 || elapsed(t) < seconds {
			s, ops, err := rep(traced)
			if err != nil {
				return nil, err
			}
			r.job(s, ops)
			reps = append(reps, s)
		}
		return reps, nil
	}
	if !e.traced {
		h := watchHeap()
		_, err := loop(e.seconds, false)
		r.mem = h.done()
		return 0, err
	}
	e.tr.enable(false)
	plain, err := loop(e.seconds/2, false)
	if err != nil {
		return 0, err
	}
	obs.Reset()
	obs.Enable()
	e.tr.enable(true)
	h := watchHeap()
	traced, err := loop(e.seconds/2, true)
	r.mem = h.done()
	obs.Disable()
	r.layer["trace.overhead_x"] = ratio(median(traced), median(plain))
	return len(traced), err
}

// job records one job of a batch workload; a failed call aborts the run
// instead.
func (r *result) job(seconds, simOps float64) {
	r.attempted++
	r.jobsMS = append(r.jobsMS, seconds*1e3)
	r.goodSpan += seconds
	if seconds <= batchLimit {
		r.good++
	}
	r.simOps += simOps
	r.simSeconds += seconds
}

// invalidate marks the run's measurement untrustworthy, once per reason.
func (r *result) invalidate(why string) {
	for _, w := range r.invalid {
		if w == why {
			return
		}
	}
	r.invalid = append(r.invalid, why)
}

// multKernel compiles the paper's 32-bit parallel multiplication alone.
func multKernel(opt pim.Options) ([]*pim.Benchmark, error) {
	b, err := pim.NewParallelMult(opt, 32)
	return []*pim.Benchmark{b}, err
}

// shortName maps a paper kernel to its per-layer metric suffix.
func shortName(bench string) string {
	switch {
	case strings.HasPrefix(bench, "mult"):
		return "mult"
	case strings.HasPrefix(bench, "conv"):
		return "conv"
	case strings.HasPrefix(bench, "dot"):
		return "dot"
	}
	return bench
}

// simConfig is the core.SimConfig that pim derives from rc for plan.
func simConfig(plan *core.WearPlan, rc pim.RunConfig) core.SimConfig {
	return core.SimConfig{
		Rows: plan.Rows(), PresetOutputs: plan.PresetOutputs(),
		Iterations: rc.Iterations, RecompileEvery: rc.RecompileEvery,
		Seed: rc.Seed, Workers: rc.Workers,
	}
}

// checkDist records a distribution's checksum and checks the invariant
// that re-mapping only moves writes: every strategy writes the kernel's
// per-iteration cell writes times the iteration count.
func (r *result) checkDist(key string, d *pim.WriteDist, plan *core.WearPlan) {
	r.output(key, fnvCounts(d.Counts))
	if want := uint64(plan.Stats().CellWrites) * uint64(d.Iterations); d.Total() != want {
		r.wrong++
		r.notes = append(r.notes, fmt.Sprintf("%s: %d total writes, want %d", key, d.Total(), want))
	}
}

// releaseResults returns distributions to their plan's arena and drops the
// wear telemetry a sampled run registered.
func releaseResults(results []*pim.Result) {
	for _, res := range results {
		res.Dist.Release()
		if res.Wear != nil {
			obs.RemoveSeries(res.Wear.Name())
			obs.RegisterWearPNG(res.Wear.Name(), nil)
		}
	}
}

// paperSweep is the paper's computation: all 18 strategies × the three
// paper kernels through PlanCache.Sweep.
func paperSweep(e *env) (*result, error) {
	r := &result{layer: map[string]float64{}}
	e.tr.enable(e.traced)
	tech := pim.MRAM()
	rc := pim.RunConfig{Iterations: sweepIterations, RecompileEvery: recompileEvery, Seed: e.seed, Workers: e.workers}
	st, err := setupBatch(e, r, pim.PaperBenchmarks, func(b *batch) error {
		warm := rc
		warm.Iterations = recompileEvery
		for _, bench := range b.benches {
			res, _, err := b.cache.Sweep(bench, b.opt, warm, nil, tech)
			if err != nil {
				return err
			}
			releaseResults(res)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	var sweepS, serialS float64
	reps, err := runPhase(e, r, func(traced bool) (float64, float64, error) {
		var repS, repOps float64
		for _, bench := range st.benches {
			plan, _ := st.cache.Plan(bench, st.opt)
			sp := e.tr.start("pim.sweep", -1, bench.Name)
			t := time.Now()
			results, hit, err := st.cache.Sweep(bench, st.opt, rc, nil, tech)
			s := elapsed(t)
			e.tr.end(sp)
			if !hit {
				r.invalidate("plan cache missed after warm-up")
			}
			if err != nil {
				return 0, 0, err
			}
			repS += s
			repOps += float64(len(bench.Trace.Ops)) * float64(rc.Iterations) * float64(len(results))
			for _, res := range results {
				r.checkDist(bench.Name+"/"+res.Strategy.Name(), res.Dist, plan)
			}
			releaseResults(results)
			if traced {
				sweepS += s
				serialS += decomposeSweep(e, r, bench, plan, rc, tech)
			}
		}
		return repS, repOps, nil
	})
	if err != nil {
		return nil, err
	}
	if e.traced {
		r.layer["pim.sweep_parallel_x"] = ratio(serialS, sweepS)
		perRep(r, reps, "core.sim_sw_s.mult", "core.sim_sw_s.conv", "core.sim_sw_s.dot",
			"core.sim_hw_s.mult", "core.sim_hw_s.conv", "core.sim_hw_s.dot", "stats.summarize_s")
		commonLayers(e, r)
	}
	return r, nil
}

// decomposeSweep re-runs one sweep strategy by strategy through the layers
// pim.Run is made of — core simulation, then stats.Summarize — timing each
// call, and checks that every distribution equals the sweep's. It returns
// the summed per-strategy time.
func decomposeSweep(e *env, r *result, bench *pim.Benchmark, plan *core.WearPlan, rc pim.RunConfig, tech pim.Technology) float64 {
	var total float64
	k := shortName(bench.Name)
	for _, s := range pim.AllStrategies() {
		sp := e.tr.start("pim.run", -1, bench.Name+"/"+s.Name())
		t := time.Now()
		simSp := e.tr.start("core.simulate", sp, "")
		dist, err := plan.Simulate(simConfig(plan, rc), s)
		simS := e.tr.end(simSp).Seconds()
		if err != nil {
			e.tr.end(sp)
			r.wrong++
			r.notes = append(r.notes, fmt.Sprintf("%s/%s: %v", bench.Name, s.Name(), err))
			continue
		}
		sumSp := e.tr.start("stats.summarize", sp, "")
		stats.Summarize(dist.Counts)
		r.layer["stats.summarize_s"] += e.tr.end(sumSp).Seconds()
		total += elapsed(t)
		e.tr.end(sp)
		if s.Hw {
			r.layer["core.sim_hw_s."+k] += simS
		} else {
			r.layer["core.sim_sw_s."+k] += simS
		}
		r.output(bench.Name+"/"+s.Name(), fnvCounts(dist.Counts))
		dist.Release()
	}
	return total
}

// perRep divides the named per-layer totals by the traced repetitions.
func perRep(r *result, reps int, names ...string) {
	for _, n := range names {
		r.layer[n] = ratio(r.layer[n], float64(reps))
	}
}

// fleetSurvival is the fleet-survival study: PlanCache.Fleet over a few
// strategies × every technology × several sigmas at ~1M devices a point.
func fleetSurvival(e *env) (*result, error) {
	r := &result{layer: map[string]float64{}}
	e.tr.enable(e.traced)
	rc := pim.RunConfig{Iterations: fleetIterations, RecompileEvery: recompileEvery, Seed: e.seed, Workers: e.workers}
	fc := pim.FleetConfig{Devices: fleetDevices, Sigmas: fleetSigmas, Seed: e.seed}
	st, err := setupBatch(e, r, multKernel, func(b *batch) error {
		warm := rc
		warm.Iterations = recompileEvery
		wfc := fc
		wfc.Sigmas = fleetSigmas[:1]
		_, _, err := b.cache.Fleet(b.benches[0], b.opt, warm, fleetStrategies[:1], pim.Technologies()[:1], wfc)
		return err
	})
	if err != nil {
		return nil, err
	}
	bench := st.benches[0]
	var devices, fleetS float64
	var tableS, drawS, drawDevices, groupsS float64
	reps, err := runPhase(e, r, func(traced bool) (float64, float64, error) {
		sp := e.tr.start("pim.fleet", -1, bench.Name)
		t := time.Now()
		points, hit, err := st.cache.Fleet(bench, st.opt, rc, fleetStrategies, nil, fc)
		s := elapsed(t)
		e.tr.end(sp)
		if !hit {
			r.invalidate("plan cache missed after warm-up")
		}
		if err != nil {
			return 0, 0, err
		}
		for _, p := range points {
			key := fmt.Sprintf("%s/%s/%g", p.Strategy.Name(), p.Technology.Name, p.Sigma)
			for i, name := range []string{"b1", "b10", "b50"} {
				r.output(key+"/"+name, exact(p.Quantiles[i]))
			}
			if !(p.Quantiles[0] <= p.Quantiles[1] && p.Quantiles[1] <= p.Quantiles[2]) || p.Devices != fc.Devices {
				r.wrong++
				r.notes = append(r.notes, fmt.Sprintf("%s: B-lives %v out of order or devices %d", key, p.Quantiles, p.Devices))
			}
		}
		if traced {
			devices += float64(len(points) * fc.Devices)
			fleetS += s
			plan, _ := st.cache.Plan(bench, st.opt)
			g, tb, dr, dd := decomposeFleet(e, r, plan, rc, fc)
			groupsS += g
			tableS += tb
			drawS += dr
			drawDevices += dd
		}
		return s, float64(len(bench.Trace.Ops)) * float64(rc.Iterations) * float64(len(fleetStrategies)), nil
	})
	if err != nil {
		return nil, err
	}
	n := float64(len(fleetStrategies) * len(pim.Technologies()) * len(fleetSigmas))
	r.notes = append(r.notes, fmt.Sprintf("fleet_devices_per_s %.6g devices/s (%g devices per study)",
		ratio(float64(r.attempted)*n*fleetDevices, r.simSeconds), n*fleetDevices))
	if e.traced {
		r.layer["fleet.devices_per_s"] = ratio(devices, fleetS)
		r.layer["fleet.groups_s"] = ratio(groupsS, float64(reps))
		r.layer["fleet.table_s"] = ratio(tableS, float64(reps))
		r.layer["fleet.draw_ns_per_device"] = ratio(drawS*1e9, drawDevices)
		commonLayers(e, r)
	}
	return r, nil
}

// decomposeFleet repeats a study through the internal/fleet calls that
// PlanCache.Fleet is made of and checks it reproduces the study's B-lives.
// It returns the seconds spent grouping, the hazard-table share of the
// first Survive per (groups, sigma) — its time minus a warm repeat — and
// the warm repeats' seconds and devices.
func decomposeFleet(e *env, r *result, plan *core.WearPlan, rc pim.RunConfig, fc pim.FleetConfig) (groupsS, tableS, drawS, drawDevices float64) {
	for _, s := range fleetStrategies {
		simSp := e.tr.start("core.simulate", -1, s.Name())
		dist, err := plan.Simulate(simConfig(plan, rc), s)
		e.tr.end(simSp)
		if err != nil {
			r.wrong++
			r.notes = append(r.notes, fmt.Sprintf("fleet %s: %v", s.Name(), err))
			continue
		}
		gsp := e.tr.start("fleet.groups", -1, s.Name())
		g, err := fleet.GroupCounts(dist.Counts, dist.Iterations)
		groupsS += e.tr.end(gsp).Seconds()
		dist.Release()
		if err != nil {
			r.wrong++
			continue
		}
		for ti, tech := range pim.Technologies() {
			for _, sigma := range fc.Sigmas {
				m := fleet.Model{MedianEndurance: tech.Endurance, Sigma: sigma}
				p := fleet.Params{Devices: fc.Devices, Seed: fc.Seed, Workers: rc.Workers}
				sp := e.tr.start("fleet.survive", -1, s.Name())
				res, err := m.Survive(g, p)
				first := e.tr.end(sp).Seconds()
				if err != nil {
					r.wrong++
					continue
				}
				key := fmt.Sprintf("%s/%s/%g", s.Name(), tech.Name, sigma)
				for i, name := range []string{"b1", "b10", "b50"} {
					r.output(key+"/"+name, exact(res.Quantiles[i]))
				}
				if ti > 0 {
					continue
				}
				// The first technology of each sigma built the hazard table;
				// a repeat of the same call only draws.
				wsp := e.tr.start("fleet.survive", -1, s.Name())
				if _, err := m.Survive(g, p); err != nil {
					r.wrong++
				}
				warm := e.tr.end(wsp).Seconds()
				tableS += first - warm
				drawS += warm
				drawDevices += float64(fc.Devices)
			}
		}
	}
	return groupsS, tableS, drawS, drawDevices
}

// steppedBanks exercises the epoch-ordered engines: a sampled 18-strategy
// sweep of one kernel, and BankStripe on the DDR4 organization under
// round-robin (batch engines per bank) and wear-aware routing (a Stepper
// per bank).
func steppedBanks(e *env) (*result, error) {
	r := &result{layer: map[string]float64{}}
	e.tr.enable(e.traced)
	tech := pim.MRAM()
	sampled := pim.RunConfig{Iterations: sampledIters, RecompileEvery: recompileEvery, Seed: e.seed, Workers: e.workers,
		SampleEvery: sampleEvery, SeriesPrefix: seriesPrefix}
	stripe := pim.RunConfig{Iterations: stripeIters, RecompileEvery: recompileEvery, Seed: e.seed, Workers: e.workers}
	policies := []pim.BankPolicy{pim.RoundRobinBanks, pim.WearAwareBanks}
	st, err := setupBatch(e, r, multKernel, func(b *batch) error {
		warm := sampled
		warm.Iterations = recompileEvery
		res, _, err := b.cache.Sweep(b.benches[0], b.opt, warm, nil, tech)
		if err != nil {
			return err
		}
		releaseResults(res)
		return nil
	})
	if err != nil {
		return nil, err
	}
	bench := st.benches[0]
	ops := float64(len(bench.Trace.Ops))
	var sampledS, plainS float64
	stripeS := map[pim.BankPolicy]float64{}
	reps, err := runPhase(e, r, func(traced bool) (float64, float64, error) {
		plan, _ := st.cache.Plan(bench, st.opt)
		sp := e.tr.start("pim.sweep.sampled", -1, bench.Name)
		t := time.Now()
		results, hit, err := st.cache.Sweep(bench, st.opt, sampled, nil, tech)
		s := elapsed(t)
		e.tr.end(sp)
		if err != nil {
			return 0, 0, err
		}
		repS, repOps := s, ops*float64(sampled.Iterations)*float64(len(results))
		for _, res := range results {
			r.checkDist("sampled/"+res.Strategy.Name(), res.Dist, plan)
			if res.Wear == nil || res.Wear.Len() == 0 {
				r.wrong++
				r.notes = append(r.notes, "sampled run recorded no wear series for "+res.Strategy.Name())
			}
		}
		releaseResults(results)
		if traced {
			sampledS += s
			psp := e.tr.start("pim.sweep", -1, bench.Name)
			t := time.Now()
			plain := sampled
			plain.SampleEvery = 0
			results, _, err := st.cache.Sweep(bench, st.opt, plain, nil, tech)
			plainS += elapsed(t)
			e.tr.end(psp)
			if err != nil {
				return 0, 0, err
			}
			for _, res := range results {
				r.output("sampled/"+res.Strategy.Name(), fnvCounts(res.Dist.Counts))
			}
			releaseResults(results)
		}
		for _, pol := range policies {
			sp := e.tr.start("system.stripe", -1, pol.String())
			t := time.Now()
			sr, h, err := st.cache.BankStripe(bench, st.opt, stripe, stripeStrategy, tech,
				pim.BankConfig{Org: pim.DDR4Organization(), Policy: pol})
			s := elapsed(t)
			e.tr.end(sp)
			hit = hit && h
			if err != nil {
				return 0, 0, err
			}
			repS += s
			repOps += ops * float64(stripe.Iterations)
			if traced {
				stripeS[pol] += s
			}
			iters := 0
			for _, b := range sr.Banks {
				r.output(fmt.Sprintf("%s/bank%02d/max", pol, b.Bank), fmt.Sprint(b.MaxWrites))
				iters += b.Iterations
				b.Dist.Release()
			}
			if iters != stripe.Iterations {
				r.wrong++
				r.notes = append(r.notes, fmt.Sprintf("%s: banks ran %d iterations, want %d", pol, iters, stripe.Iterations))
			}
		}
		if !hit {
			r.invalidate("plan cache missed after warm-up")
		}
		return repS, repOps, nil
	})
	if err != nil {
		return nil, err
	}
	if e.traced {
		r.layer["core.sampled_x"] = ratio(sampledS, plainS)
		for _, pol := range policies {
			r.layer["system.stripe_s."+pol.String()] = ratio(stripeS[pol], float64(reps))
		}
		commonLayers(e, r)
	}
	return r, nil
}

// counter reads a program counter recorded during the traced phase.
func counter(name string) float64 { return float64(obs.GetCounter(name).Value()) }

// stage reads the totals of one of the program's stage timers; zero when no
// span of that name ended since the last obs.Reset.
func stage(name string) obs.Stage {
	for _, st := range obs.Capture().Stages {
		if st.Name == name {
			return st
		}
	}
	return obs.Stage{Name: name}
}

// commonLayers fills the per-layer metrics every traced run reports: set-up
// layers from the spans, engine ratios from the program's own counters,
// and the Go runtime figures of the traced phase.
func commonLayers(e *env, r *result) {
	lts := selfTimes(e.tr.snapshot())
	if r.layer["workloads.compile_s"] == 0 {
		r.layer["workloads.compile_s"] = ratio(layerTotal(lts, "workloads.compile"), float64(len(r.setups)))
		r.layer["core.plan_s"] = ratio(layerTotal(lts, "core.plan"), float64(len(r.setups)))
	}
	saved := counter("core.hw.replay_iters_saved")
	r.layer["core.hw.saved_frac"] = ratio(saved, saved+counter("core.hw.replay_iters"))
	memo := counter("core.sw.memo_hits")
	r.layer["core.sw.memo_hit_frac"] = ratio(memo, memo+counter("core.sw.groups"))
	hits := counter("core.arena_hits")
	r.layer["core.arena_hit_frac"] = ratio(hits, hits+counter("core.arena_misses"))
	r.layer["pool.jobs_per_dispatch"] = ratio(counter("pool.jobs"), counter("pool.dispatches"))
	r.layer["system.bank_sims"] = counter("system.bank_sims")
	r.layer["fleet.fallback_frac"] = ratio(counter("fleet.fallbacks"), counter("fleet.draws"))
	r.layer["go.alloc_mb"] = r.mem.allocMB
	r.layer["go.gc_cycles"] = r.mem.gcCycles
	r.layer["go.gc_pause_ms"] = r.mem.gcPauseMS
}

package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"runtime"
	"sort"
	"sync"
	"time"

	"pimendure/internal/obs"
	"pimendure/internal/serve"
	"pimendure/pim"
)

// serve-mixed sizing. The arrival rate sits below the knee where queueing
// takes over on two cores; the distinct-geometry share cycles through more
// geometries than the server's 32-plan cache holds, so each of those jobs
// builds its plan.
const (
	serveRate      = 30.0             // arrival events per second, open loop
	serveLimitMS   = 250.0            // latency limit of goodput_rps
	distinctShapes = 40               // geometries the distinct share cycles through
	pollEvery      = time.Millisecond // how often each outstanding job is polled
	maxLagMS       = 50.0             // generator lateness that invalidates a run
	maxBacklog     = 5.0              // backlog growth (requests) that invalidates a run
	drainTimeout   = 30 * time.Second
	serveIters     = 1000 // iterations of a hot sweep or /run job
)

// Shares of the request mix, in percent; the rest are hot sweeps. They were
// chosen so that every serving path (plan-cache hit, plan build, coalescing,
// /run, /fleet) carries enough jobs to be timed, not measured from any
// recorded traffic; every run prints the shares it actually produced.
const (
	distinctPct = 15
	runPct      = 10
	fleetPct    = 5
	burstPct    = 10 // arrival events that carry a duplicate hot request
)

// hotStrategies are the strategies of every hot sweep; StxSt makes the
// server report improvement factors.
var hotStrategies = []string{"StxSt", "RaxRa", "StxSt+Hw", "RaxBs+Hw"}

// reqSpec is one request of the mix: endpoint, body and what the plan
// cache should do with it.
type reqSpec struct {
	Path     string
	Class    string // hot, distinct, run or fleet
	Req      serve.Request
	WantHit  bool
	shapeKey string
}

// shapes returns every distinct request shape of a seed: the four hot
// sweeps, the /run and /fleet shapes, then the distinct-geometry sweeps.
func shapes(seed int64) []reqSpec {
	hot := func(bench string, bits int) reqSpec {
		return reqSpec{Path: "/sweep", Class: "hot", WantHit: true, Req: serve.Request{
			Benchmark: bench, Bits: bits, Lanes: 64, Rows: 256, Iterations: serveIters,
			RecompileEvery: recompileEvery, Seed: seed, Strategies: hotStrategies, Technology: "MRAM"}}
	}
	out := []reqSpec{hot("mult", 8), hot("conv", 8), hot("dot", 8), hot("add", 16)}
	out = append(out, reqSpec{Path: "/run", Class: "run", WantHit: true, Req: serve.Request{
		Benchmark: "dot", Bits: 8, Lanes: 64, Rows: 256, Iterations: serveIters,
		RecompileEvery: recompileEvery, Seed: seed, Strategies: []string{"RaxRa+Hw"}, Technology: "MRAM"}})
	out = append(out, reqSpec{Path: "/fleet", Class: "fleet", WantHit: true, Req: serve.Request{
		Benchmark: "mult", Bits: 8, Lanes: 64, Rows: 256, Iterations: serveIters / 2,
		RecompileEvery: recompileEvery, Seed: seed, Strategies: []string{"StxSt"},
		Technology: "MRAM", Technologies: []string{"MRAM"}, Devices: 20_000, Sigmas: []float64{0.3}}})
	for g := 0; g < distinctShapes; g++ {
		out = append(out, reqSpec{Path: "/sweep", Class: "distinct", Req: serve.Request{
			Benchmark: "mult", Bits: 8, Lanes: 34 + 4*g, Rows: 256, Iterations: serveIters / 2,
			RecompileEvery: recompileEvery, Seed: seed, Strategies: []string{"StxSt", "RaxRa+Hw"}, Technology: "MRAM"}})
	}
	for i := range out {
		body, _ := json.Marshal(out[i].Req) // plain struct; cannot fail
		out[i].shapeKey = out[i].Path + string(body)
	}
	return out
}

// serveMix draws the n arrivals of one open-loop phase from seed: exact
// class counts in a seeded order, hot shapes in turn, and the distinct
// share walking the geometries cyclically from a seeded offset.
func serveMix(seed int64, n int) []reqSpec {
	all := shapes(seed)
	rng := rand.New(rand.NewSource(seed))
	nDistinct, nRun, nFleet := n*distinctPct/100, n*runPct/100, n*fleetPct/100
	mix := make([]reqSpec, 0, n)
	off := rng.Intn(distinctShapes)
	for k := 0; k < nDistinct; k++ {
		mix = append(mix, all[6+(off+k)%distinctShapes])
	}
	for k := 0; k < nRun; k++ {
		mix = append(mix, all[4])
	}
	for k := 0; k < nFleet; k++ {
		mix = append(mix, all[5])
	}
	for k := 0; len(mix) < n; k++ {
		mix = append(mix, all[k%4])
	}
	// Shuffle but keep the distinct requests in cyclic order, so that
	// every geometry is evicted before it comes round again.
	rng.Shuffle(len(mix), func(i, j int) { mix[i], mix[j] = mix[j], mix[i] })
	k := 0
	for i := range mix {
		if mix[i].Class == "distinct" {
			mix[i] = all[6+(off+k)%distinctShapes]
			k++
		}
	}
	return mix
}

// arrival is one request of the open loop and when it is due, counted
// from the start of the phase.
type arrival struct {
	due  time.Duration
	spec reqSpec
}

// arrivals is the open-loop send plan of a seed: arrival event k is due
// k/rate seconds after the start, whatever happened to earlier requests.
// burstPct of the events are hot sweeps sent twice at the same instant,
// as two users asking the same question, so the server coalesces them.
func arrivals(seed int64, rate, seconds float64) []arrival {
	n := int(rate * seconds)
	mix := serveMix(seed, n)
	var hot []int
	for i, spec := range mix {
		if spec.Class == "hot" {
			hot = append(hot, i)
		}
	}
	rng := rand.New(rand.NewSource(seed + 1))
	rng.Shuffle(len(hot), func(i, j int) { hot[i], hot[j] = hot[j], hot[i] })
	burst := map[int]bool{}
	for _, i := range hot[:min(len(hot), n*burstPct/100)] {
		burst[i] = true
	}
	out := make([]arrival, 0, n+len(burst))
	for k, spec := range mix {
		due := time.Duration(float64(k) / rate * float64(time.Second))
		out = append(out, arrival{due, spec})
		if burst[k] {
			out = append(out, arrival{due, spec})
		}
	}
	return out
}

// sent is one request's life as the client saw it.
type sent struct {
	spec     reqSpec
	due      time.Time
	sentAt   time.Time
	doneAt   time.Time
	submitMS float64
	job      string
	state    string // terminal job state, "" when never reached
	result   *serve.JobResult
}

// jobStatus is the part of GET /jobs/<id> the benchmark reads.
type jobStatus struct {
	State  string           `json:"state"`
	Error  string           `json:"error"`
	Result *serve.JobResult `json:"result"`
}

func terminal(state string) bool { return state == "done" || state == "failed" || state == "canceled" }

// server is the in-process job server and the client that talks to it over
// loopback.
type server struct {
	srv    *serve.Server
	hs     *http.Server
	base   string
	client *http.Client
	done   chan struct{}
}

func startServer(workers int) (*server, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &server{
		srv:  serve.New(serve.Config{Workers: workers}),
		base: "http://" + ln.Addr().String(),
		client: &http.Client{Timeout: drainTimeout, Transport: &http.Transport{
			MaxConnsPerHost: workers, MaxIdleConnsPerHost: workers}},
		done: make(chan struct{}),
	}
	s.hs = &http.Server{Handler: s.srv}
	go func() {
		defer close(s.done)
		_ = s.hs.Serve(ln) // returns http.ErrServerClosed on Shutdown
	}()
	return s, nil
}

// stop shuts the listener, waits for the serving goroutine, then drains the
// job queue.
func (s *server) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	_ = s.hs.Shutdown(ctx) // a timeout leaves Close below to cut connections
	_ = s.hs.Close()
	<-s.done
	s.srv.Close()
	s.client.CloseIdleConnections()
}

// submit POSTs one request and returns the HTTP status and the job id.
func (s *server) submit(spec reqSpec) (int, string, error) {
	body, err := json.Marshal(spec.Req)
	if err != nil {
		return 0, "", err
	}
	resp, err := s.client.Post(s.base+spec.Path, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, "", err
	}
	defer resp.Body.Close()
	var out struct {
		Job string `json:"job"`
	}
	if resp.StatusCode == http.StatusAccepted {
		err = json.NewDecoder(resp.Body).Decode(&out)
	} else {
		_, _ = io.Copy(io.Discard, resp.Body)
	}
	return resp.StatusCode, out.Job, err
}

func (s *server) poll(id string) (jobStatus, error) {
	var st jobStatus
	resp, err := s.client.Get(s.base + "/jobs/" + id)
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return st, fmt.Errorf("GET /jobs/%s: %s", id, resp.Status)
	}
	return st, json.NewDecoder(resp.Body).Decode(&st)
}

// wait submits spec and polls until its job ends (set-up warm-up).
func (s *server) wait(spec reqSpec) error {
	code, id, err := s.submit(spec)
	if err != nil || code != http.StatusAccepted {
		return fmt.Errorf("warm-up %s: status %d: %v", spec.Path, code, err)
	}
	for {
		st, err := s.poll(id)
		if err != nil {
			return err
		}
		if terminal(st.State) {
			if st.State != "done" {
				return fmt.Errorf("warm-up %s: job %s %s: %s", spec.Path, id, st.State, st.Error)
			}
			return nil
		}
		time.Sleep(pollEvery)
	}
}

// openLoop sends mix on schedule from one goroutine while another polls
// the accepted jobs until they end; two goroutines, at most two
// connections. It returns every request's record and the backlog samples
// (outstanding requests over time).
func openLoop(s *server, plan []arrival) ([]sent, []float64) {
	start := time.Now().Add(20 * time.Millisecond)
	last := start.Add(plan[len(plan)-1].due)
	recs := make([]sent, len(plan))
	var (
		mu          sync.Mutex
		outstanding = map[string][]int{}
		genDone     bool
		backlog     []float64
		waiting     int
	)
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { // generator
		defer wg.Done()
		for k, a := range plan {
			rec := sent{spec: a.spec, due: start.Add(a.due)}
			time.Sleep(time.Until(rec.due))
			rec.sentAt = time.Now()
			code, id, err := s.submit(a.spec)
			rec.submitMS = ms(time.Since(rec.sentAt))
			rec.job = id
			mu.Lock()
			recs[k] = rec
			if err == nil && code == http.StatusAccepted {
				outstanding[id] = append(outstanding[id], k)
				waiting++
			}
			mu.Unlock()
		}
		mu.Lock()
		genDone = true
		mu.Unlock()
	}()
	go func() { // poller
		defer wg.Done()
		var deadline time.Time
		for {
			mu.Lock()
			ids := make([]string, 0, len(outstanding))
			for id := range outstanding {
				ids = append(ids, id)
			}
			if time.Now().Before(last) {
				backlog = append(backlog, float64(waiting))
			}
			finished := genDone && len(ids) == 0
			if genDone && deadline.IsZero() {
				deadline = time.Now().Add(drainTimeout)
			}
			mu.Unlock()
			if finished || (!deadline.IsZero() && time.Now().After(deadline)) {
				return
			}
			for _, id := range ids {
				st, err := s.poll(id)
				if err != nil || !terminal(st.State) {
					continue
				}
				// The client sees the job end when a poll returns; the
				// server's own finish time has only millisecond resolution.
				now := time.Now()
				mu.Lock()
				for _, k := range outstanding[id] {
					recs[k].doneAt, recs[k].state, recs[k].result = now, st.State, st.Result
					waiting--
				}
				delete(outstanding, id)
				mu.Unlock()
			}
			time.Sleep(pollEvery)
		}
	}()
	wg.Wait()
	return recs, backlog
}

// expected is the direct pim result of one request shape.
type expected struct {
	fnv       map[string]string    // strategy -> dist checksum
	fleet     map[string][3]string // strategy/tech/sigma -> B1, B10, B50
	compileS  float64
	opsPerJob float64
}

// direct computes a shape's result through the pim facade, outside the
// server, timing the compile the server's job also pays.
func direct(e *env, spec reqSpec) (*expected, error) {
	q := spec.Req
	opt := pim.Options{Lanes: q.Lanes, Rows: q.Rows, PresetOutputs: !q.NoPreset, NANDBasis: !q.Mixed2, LowestFirstAlloc: q.LowestFirstAlloc}
	sp := e.tr.start("workloads.compile", -1, spec.Class)
	t := time.Now()
	var bench *pim.Benchmark
	var err error
	switch q.Benchmark {
	case "mult":
		bench, err = pim.NewParallelMult(opt, q.Bits)
	case "conv":
		bench, err = pim.NewConvolution(opt, 4, 3, q.Bits)
	case "dot":
		bench, err = pim.NewDotProduct(opt, q.Lanes, q.Bits)
	case "add":
		bench, err = pim.NewVectorAdd(opt, q.Bits)
	default:
		err = fmt.Errorf("no direct path for benchmark %q", q.Benchmark)
	}
	ex := &expected{fnv: map[string]string{}, fleet: map[string][3]string{}, compileS: elapsed(t)}
	e.tr.end(sp)
	if err != nil {
		return nil, err
	}
	strats, err := strategies(q.Strategies)
	if err != nil {
		return nil, err
	}
	cache := pim.NewPlanCache(1)
	ex.opsPerJob = float64(len(bench.Trace.Ops)) * float64(q.Iterations) * float64(len(strats))
	rc := pim.RunConfig{Iterations: q.Iterations, RecompileEvery: q.RecompileEvery, Seed: q.Seed, Workers: e.workers}
	switch spec.Path {
	case "/fleet":
		techs := []pim.Technology{pim.MRAM()}
		pts, _, err := cache.Fleet(bench, opt, rc, strats, techs, pim.FleetConfig{Devices: q.Devices, Sigmas: q.Sigmas, Seed: q.Seed})
		if err != nil {
			return nil, err
		}
		for _, p := range pts {
			ex.fleet[fmt.Sprintf("%s/%s/%g", p.Strategy.Name(), p.Technology.Name, p.Sigma)] =
				[3]string{exact(p.Quantiles[0]), exact(p.Quantiles[1]), exact(p.Quantiles[2])}
		}
	default:
		results, _, err := cache.Sweep(bench, opt, rc, strats, pim.MRAM())
		if err != nil {
			return nil, err
		}
		for _, res := range results {
			ex.fnv[res.Strategy.Name()] = fnvCounts(res.Dist.Counts)
		}
		releaseResults(results)
	}
	return ex, nil
}

// strategies resolves paper labels against pim.AllStrategies.
func strategies(labels []string) ([]pim.Strategy, error) {
	var out []pim.Strategy
	for _, l := range labels {
		found := false
		for _, s := range pim.AllStrategies() {
			if s.Name() == l {
				out = append(out, s)
				found = true
			}
		}
		if !found {
			return nil, fmt.Errorf("unknown strategy %q", l)
		}
	}
	return out, nil
}

// served compares a served job result with the direct one.
func served(ex *expected, res *serve.JobResult) error {
	if res == nil {
		return errors.New("no result")
	}
	if len(ex.fleet) > 0 {
		if len(res.Fleet) != len(ex.fleet) {
			return fmt.Errorf("%d fleet rows, want %d", len(res.Fleet), len(ex.fleet))
		}
		for _, row := range res.Fleet {
			got := [3]string{exact(row.B1Iterations), exact(row.B10Iterations), exact(row.B50Iterations)}
			if want := ex.fleet[fmt.Sprintf("%s/%s/%g", row.Strategy, row.Technology, row.Sigma)]; got != want {
				return fmt.Errorf("fleet %s/%s: B-lives %v, want %v", row.Strategy, row.Technology, got, want)
			}
		}
		return nil
	}
	if len(res.Strategies) != len(ex.fnv) {
		return fmt.Errorf("%d strategies, want %d", len(res.Strategies), len(ex.fnv))
	}
	for _, row := range res.Strategies {
		if want := ex.fnv[row.Strategy]; row.DistFNV != want {
			return fmt.Errorf("%s: dist_fnv %s, want %s", row.Strategy, row.DistFNV, want)
		}
	}
	return nil
}

// serveMixed drives an in-process serve.Server over loopback with an open
// loop of mostly repeating small jobs.
func serveMixed(e *env) (*result, error) {
	r := &result{layer: map[string]float64{}}
	e.tr.enable(e.traced)
	all := shapes(e.seed)
	warm := all[:6]
	var s *server
	for i := 0; i < setupsPerRun; i++ {
		if s != nil {
			s.stop()
		}
		runtime.GC()
		sp := e.tr.start("setup", -1, "")
		t := time.Now()
		var err error
		if s, err = startServer(e.workers); err != nil {
			return nil, err
		}
		for _, spec := range warm {
			if err := s.wait(spec); err != nil {
				s.stop()
				return nil, err
			}
		}
		r.setups = append(r.setups, elapsed(t))
		e.tr.end(sp)
	}
	defer s.stop()

	// One plan for the whole run, so the distinct share keeps cycling when
	// a traced run splits it into an untraced and a traced half.
	plan := arrivals(e.seed, serveRate, e.seconds)
	// measured is the phase the metrics come from. It runs with the
	// program's obs layer on, because the server's compute time of a job is
	// exact (nanoseconds) only in its serve.compute histogram; its job
	// status rounds it down to whole milliseconds. A traced run first sends
	// the half of the plan with obs off, so trace.overhead_x is the cost of
	// obs and the benchmark's spans together.
	var untraced, measured []sent
	var backlog []float64
	second := plan
	if e.traced {
		half := time.Duration(e.seconds / 2 * float64(time.Second))
		i := sort.Search(len(plan), func(i int) bool { return plan[i].due >= half })
		second = append([]arrival(nil), plan[i:]...)
		for k := range second {
			second[k].due -= half
		}
		e.tr.enable(false)
		untraced, _ = openLoop(s, plan[:i])
		e.tr.enable(true)
	}
	obs.Reset()
	obs.Enable()
	h := watchHeap()
	measured, backlog = openLoop(s, second)
	r.mem = h.done()
	obs.Disable()
	compute := obs.GetDurationHistogram("serve.compute")
	r.simSeconds = compute.Sum()
	planStage := stage("core.simulate/plan")

	// Outside the timer: the direct result of every shape, which is also
	// the run's output for the golden check.
	exp := map[string]*expected{}
	for _, spec := range all {
		ex, err := direct(e, spec)
		if err != nil {
			return nil, err
		}
		exp[spec.shapeKey] = ex
		for strat, v := range ex.fnv {
			r.output(fmt.Sprintf("%s/%s/%dx%d/%s", spec.Path, spec.Req.Benchmark, spec.Req.Lanes, spec.Req.Rows, strat), v)
		}
		for key, v := range ex.fleet {
			for i, name := range []string{"b1", "b10", "b50"} {
				r.output(fmt.Sprintf("%s/%s/%dx%d/%s/%s", spec.Path, spec.Req.Benchmark, spec.Req.Lanes, spec.Req.Rows, key, name), v[i])
			}
		}
	}

	untracedMS := score(e, r, untraced, exp, false)
	measuredMS := score(e, r, measured, exp, true)
	mix := measureMix(measured)
	r.notes = append(r.notes, fmt.Sprintf("mix: %.3f of requests repeat an earlier shape, %.3f coalesced onto a running job, "+
		"%.3f of executed jobs hit the plan cache (%d jobs, %d plan builds, %.4f s of server compute)",
		mix.repeat, mix.coalesce, mix.cacheHit, mix.jobs, planStage.Count, r.simSeconds))
	if int(compute.Count()) != mix.jobs {
		r.invalidate(fmt.Sprintf("server timed %d jobs, the client saw %d end", compute.Count(), mix.jobs))
	}
	var lags, submits []float64
	for _, rec := range measured {
		lags = append(lags, ms(rec.sentAt.Sub(rec.due)))
		submits = append(submits, rec.submitMS)
	}
	lag, _ := tail(lags)
	growth := backlogGrowth(backlog)
	r.notes = append(r.notes, fmt.Sprintf("loadgen.lag_p99_ms %.3f ms, backlog growth %.2f requests, %d requests at %g arrivals/s",
		lag, growth, len(measured), serveRate))
	if lag > maxLagMS {
		r.invalidate(fmt.Sprintf("generator fell behind: lag tail %.1f ms > %g ms", lag, maxLagMS))
	}
	if growth > maxBacklog {
		r.invalidate(fmt.Sprintf("backlog grew by %.1f requests during the phase", growth))
	}
	if e.traced {
		r.layer["trace.overhead_x"] = ratio(median(measuredMS), median(untracedMS))
		r.layer["loadgen.lag_p99_ms"] = lag
		r.layer["loadgen.backlog_growth"] = growth
		r.layer["serve.submit_ms.p50"] = median(submits)
		r.layer["serve.submit_ms.p99"], _ = tail(submits)
		r.layer["serve.queue_wait_ms.p50"], r.layer["serve.queue_wait_ms.p99"] = histMS("serve.queue_wait")
		r.layer["serve.compute_ms.p50"], r.layer["serve.compute_ms.p99"] = histMS("serve.compute")
		r.layer["serve.queue_depth_max"] = float64(obs.GetGauge("serve.queue_depth").Value())
		hits := counter("serve.cache_hits")
		r.layer["serve.cache_hit_frac"] = ratio(hits, hits+counter("serve.cache_misses"))
		acc, coal, shed := counter("serve.jobs_accepted"), counter("serve.jobs_coalesced"), counter("serve.jobs_shed")
		r.layer["serve.coalesce_frac"] = ratio(coal, acc+coal)
		r.layer["serve.shed_frac"] = ratio(shed, acc+coal+shed)
		r.layer["serve.repeat_frac"] = mix.repeat
		// The server compiles every job but has no timer around it, so the
		// compile figure is the direct sample of each job's shape. Plan
		// builds are the server's own, timed by the program.
		var compile float64
		seen := map[string]bool{}
		for _, rec := range measured {
			if rec.job != "" && !seen[rec.job] {
				seen[rec.job] = true
				compile += exp[rec.spec.shapeKey].compileS
			}
		}
		r.layer["workloads.compile_s"] = ratio(compile, float64(mix.jobs))
		r.layer["core.plan_s"] = ratio(planStage.Seconds, float64(mix.jobs))
		commonLayers(e, r)
	}
	return r, nil
}

// score checks every request of a phase against the direct results and
// adds it to r; it returns the latencies (ms) of the requests that ended.
func score(e *env, r *result, recs []sent, exp map[string]*expected, timed bool) []float64 {
	if len(recs) == 0 {
		return nil
	}
	var lat []float64
	start := recs[0].due
	var last time.Time
	counted := map[string]bool{}
	byClass := map[string][]float64{}
	for _, rec := range recs {
		spec := rec.spec
		r.attempted++
		if rec.state != "done" {
			r.failed++
			continue
		}
		lateMS := ms(rec.doneAt.Sub(rec.due))
		lat = append(lat, lateMS)
		byClass[spec.Class] = append(byClass[spec.Class], lateMS)
		if rec.doneAt.After(last) {
			last = rec.doneAt
		}
		ex := exp[spec.shapeKey]
		err := served(ex, rec.result)
		if err == nil && rec.result.CacheHit != spec.WantHit {
			err = fmt.Errorf("cache_hit %v, want %v", rec.result.CacheHit, spec.WantHit)
		}
		if err != nil {
			r.wrong++
			r.notes = append(r.notes, fmt.Sprintf("job %s (%s %s): %v", rec.job, spec.Class, spec.Path, err))
			continue
		}
		if lateMS <= serveLimitMS {
			r.good++
		}
		if timed && !counted[rec.job] {
			counted[rec.job] = true
			r.simOps += ex.opsPerJob
		}
		if timed {
			sp := e.tr.record("serve.job", rec.due, rec.doneAt, -1, rec.job)
			e.tr.record("serve.submit", rec.sentAt, rec.sentAt.Add(time.Duration(rec.submitMS*1e6)), sp, rec.job)
		}
	}
	r.jobsMS = append(r.jobsMS, lat...)
	r.goodSpan += last.Sub(start).Seconds()
	if timed {
		for _, class := range []string{"hot", "distinct", "run", "fleet"} {
			v, pct := tail(byClass[class])
			r.notes = append(r.notes, fmt.Sprintf("%-8s requests %4d  p50 %8.3f ms  p%.1f %8.3f ms",
				class, len(byClass[class]), median(byClass[class]), pct, v))
		}
	}
	return lat
}

// mixShares are the shares of a phase's traffic that take the server's
// repeat paths.
type mixShares struct {
	repeat   float64 // requests whose shape was sent before in the phase
	coalesce float64 // accepted requests that joined another request's job
	cacheHit float64 // executed jobs that found their plan in the cache
	jobs     int     // jobs the server executed to the end
}

// measureMix counts what the server did with a phase's requests.
func measureMix(recs []sent) mixShares {
	var m mixShares
	var accepted, hits int
	shapes, jobs := map[string]bool{}, map[string]bool{}
	for _, rec := range recs {
		if shapes[rec.spec.shapeKey] {
			m.repeat++
		}
		shapes[rec.spec.shapeKey] = true
		if rec.job == "" {
			continue
		}
		accepted++
		if jobs[rec.job] {
			m.coalesce++
			continue
		}
		jobs[rec.job] = true
		if rec.state != "" {
			m.jobs++
			if rec.result != nil && rec.result.CacheHit {
				hits++
			}
		}
	}
	m.repeat = ratio(m.repeat, float64(len(recs)))
	m.coalesce = ratio(m.coalesce, float64(accepted))
	m.cacheHit = ratio(float64(hits), float64(m.jobs))
	return m
}

// histMS reads the median and the tail (the highest percentile with
// minTail samples beyond it) of one of the server's duration histograms,
// in milliseconds, interpolated within its power-of-two buckets.
func histMS(name string) (p50, tailMS float64) {
	h := obs.GetDurationHistogram(name)
	q := max(0.5, 1-minTail/float64(max(h.Count(), 1)))
	return h.Quantile(0.5) * 1e3, h.Quantile(q) * 1e3
}

// backlogGrowth compares the mean number of outstanding requests in the
// last third of the send window with the first third.
func backlogGrowth(samples []float64) float64 {
	n := len(samples) / 3
	if n == 0 {
		return 0
	}
	return sum(samples[len(samples)-n:])/float64(n) - sum(samples[:n])/float64(n)
}

// ms converts a duration to fractional milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

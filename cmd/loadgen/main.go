// Command loadgen drives a pimserve instance with a configurable storm
// of concurrent sweep requests and reports what came back: clean 202s,
// coalesced submissions, shed 429s, dropped connections, client-side
// submit-latency percentiles (p50/p95/p99/max), the server-reported
// queue-wait vs compute breakdown of every finished job, sustained
// request throughput, and the server's WearPlan cache-hit delta scraped
// from /metrics. When the server exposes the structured event log
// (/events), loadgen additionally cross-checks the server's admission
// arithmetic — admit, coalesce and reject record deltas — against its
// own client-side tallies, exactly. It is the acceptance harness for
// the serving layer: "N concurrent requests, zero dropped connections,
// shed requests get clean 429s, server log balances the client's counts"
// is checked here against a live server.
//
// With -fleet the storm posts fleet-survival jobs (POST /fleet, with
// -devices and -sigmas shaping each request) instead of sweeps, and a
// finished job must carry fleet rows to count as done — so the same
// ledger cross-check exercises the fleet path of the admission pipeline.
//
// Example (against `pimserve -serve localhost:8090`):
//
//	loadgen -target http://localhost:8090 -requests 2000 -concurrency 1000
//	loadgen -target http://localhost:8090 -fleet -requests 200 -devices 20000
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"pimendure/internal/cliflag"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("loadgen: ")

	target := flag.String("target", "http://localhost:8090", "pimserve base URL")
	requests := flag.Int("requests", 2000, "total requests to send")
	concurrency := flag.Int("concurrency", 1000, "concurrent in-flight requests")
	f := cliflag.Flags{Bench: "mult", Bits: 4, Lanes: 16, Rows: 256, Recompile: 20}
	f.Register(flag.CommandLine, "benchmark", "bits", "lanes", "rows", "recompile")
	iterations := flag.Int("iterations", 60, "iterations per job")
	strategies := flag.String("strategies", "StxSt", "comma-separated strategy labels (empty = all 18)")
	distinct := flag.Int("distinct", 32, "distinct request shapes (seeds); 1 = maximal coalescing")
	wait := flag.Bool("wait", true, "poll accepted jobs to completion before reporting")
	fleet := flag.Bool("fleet", false, "storm POST /fleet instead of /sweep (fleet-survival jobs)")
	devices := flag.Int("devices", 20000, "fleet population per sweep point (with -fleet)")
	sigmas := flag.String("sigmas", "0.3", "comma-separated endurance sigmas (with -fleet)")
	flag.Parse()

	var sigmaList []float64
	if *fleet {
		var err error
		if sigmaList, err = cliflag.ParseSigmas(*sigmas); err != nil {
			log.Fatal(err)
		}
	}
	var strats []string
	if *strategies != "" {
		strats = strings.Split(*strategies, ",")
	}
	client := &http.Client{
		Timeout: 2 * time.Minute,
		Transport: &http.Transport{
			MaxIdleConns:        2 * *concurrency,
			MaxIdleConnsPerHost: 2 * *concurrency,
		},
	}

	hitsBefore, _ := scrapeMetric(client, *target, "serve_cache_hits")
	missesBefore, _ := scrapeMetric(client, *target, "serve_cache_misses")
	logDroppedBefore, _ := scrapeMetric(client, *target, "obs_log_dropped_total")
	eventsBefore, eventsErr := eventCounts(client, *target)

	var accepted, coalesced, shed, other, dropped atomic.Int64
	latencies := make([]time.Duration, *requests)
	jobs := make(chan string, *requests)
	sem := make(chan struct{}, *concurrency)
	var wg sync.WaitGroup
	start := time.Now()
	for i := 0; i < *requests; i++ {
		wg.Add(1)
		sem <- struct{}{}
		go func(i int) {
			defer wg.Done()
			defer func() { <-sem }()
			body := map[string]any{
				"benchmark":       f.Bench,
				"bits":            f.Bits,
				"lanes":           f.Lanes,
				"rows":            f.Rows,
				"iterations":      *iterations,
				"recompile_every": f.Recompile,
				"seed":            i % max(*distinct, 1),
			}
			if len(strats) > 0 {
				body["strategies"] = strats
			}
			endpoint := "/sweep"
			if *fleet {
				endpoint = "/fleet"
				body["devices"] = *devices
				body["sigmas"] = sigmaList
			}
			data, _ := json.Marshal(body)
			t0 := time.Now()
			resp, err := client.Post(*target+endpoint, "application/json", bytes.NewReader(data))
			latencies[i] = time.Since(t0)
			if err != nil {
				dropped.Add(1)
				return
			}
			var out map[string]any
			decErr := json.NewDecoder(resp.Body).Decode(&out)
			resp.Body.Close()
			switch {
			case decErr != nil:
				dropped.Add(1)
			case resp.StatusCode == http.StatusAccepted:
				accepted.Add(1)
				if out["coalesced"] == true {
					coalesced.Add(1)
				}
				if id, _ := out["job"].(string); id != "" {
					jobs <- id
				}
			case resp.StatusCode == http.StatusTooManyRequests:
				shed.Add(1)
			default:
				other.Add(1)
			}
		}(i)
	}
	wg.Wait()
	submitWall := time.Since(start)
	close(jobs)

	unique := map[string]bool{}
	for id := range jobs {
		unique[id] = true
	}
	var breakdowns []jobBreakdown
	if *wait {
		for id := range unique {
			bd, err := pollDone(client, *target, id, *fleet)
			if err != nil {
				log.Printf("job %s: %v", id, err)
				other.Add(1)
				continue
			}
			breakdowns = append(breakdowns, bd)
		}
	}
	totalWall := time.Since(start)

	hitsAfter, hitsErr := scrapeMetric(client, *target, "serve_cache_hits")
	missesAfter, _ := scrapeMetric(client, *target, "serve_cache_misses")
	logDroppedAfter, _ := scrapeMetric(client, *target, "obs_log_dropped_total")

	sort.Slice(latencies, func(i, k int) bool { return latencies[i] < latencies[k] })
	pct := func(q float64) time.Duration {
		return latencies[int(q*float64(len(latencies)-1))]
	}
	fmt.Printf("requests            %d (concurrency %d, %d distinct shapes)\n", *requests, *concurrency, *distinct)
	fmt.Printf("accepted            %d (%d coalesced onto in-flight jobs, %d unique jobs)\n",
		accepted.Load(), coalesced.Load(), len(unique))
	fmt.Printf("shed (429)          %d\n", shed.Load())
	fmt.Printf("dropped/errors      %d / %d\n", dropped.Load(), other.Load())
	fmt.Printf("submit throughput   %.0f req/s (%.2fs wall)\n",
		float64(*requests)/submitWall.Seconds(), submitWall.Seconds())
	if *wait {
		fmt.Printf("end-to-end wall     %.2fs (all accepted jobs finished)\n", totalWall.Seconds())
	}
	fmt.Printf("submit latency      p50 %v  p95 %v  p99 %v  max %v\n",
		pct(0.50), pct(0.95), pct(0.99), pct(1))
	if len(breakdowns) > 0 {
		printBreakdown(breakdowns)
	}
	if hitsErr == nil {
		fmt.Printf("plan cache          +%d hits, +%d misses during the storm\n",
			hitsAfter-hitsBefore, missesAfter-missesBefore)
	}

	failed := dropped.Load() > 0 || other.Load() > 0
	if eventsErr == nil {
		eventsAfter, err := eventCounts(client, *target)
		switch {
		case err != nil:
			log.Printf("event log recheck failed: %v", err)
		case logDroppedAfter > logDroppedBefore:
			fmt.Printf("event log           skipped the balance check (%d records dropped by the bounded ring)\n",
				logDroppedAfter-logDroppedBefore)
		default:
			admits := eventsAfter["serve.admit"] - eventsBefore["serve.admit"]
			coals := eventsAfter["serve.coalesce"] - eventsBefore["serve.coalesce"]
			rejects := eventsAfter["serve.reject"] - eventsBefore["serve.reject"]
			fmt.Printf("event log           +%d admit, +%d coalesce, +%d reject records\n", admits, coals, rejects)
			if admits != accepted.Load()-coalesced.Load() || coals != coalesced.Load() || rejects != shed.Load() {
				log.Printf("FAIL: server event log does not balance the client tallies "+
					"(want admit %d, coalesce %d, reject %d)",
					accepted.Load()-coalesced.Load(), coalesced.Load(), shed.Load())
				failed = true
			}
		}
	}

	if failed {
		log.Fatalf("FAIL: %d dropped connections, %d unexpected statuses", dropped.Load(), other.Load())
	}
	fmt.Println("PASS: every request got a clean 202 or 429")
}

// jobBreakdown is one finished job's server-reported latency split.
type jobBreakdown struct {
	queue, compute, total time.Duration
}

// printBreakdown reports percentiles of the server-side queue-wait vs
// compute split across the storm's unique jobs.
func printBreakdown(bds []jobBreakdown) {
	pick := func(sel func(jobBreakdown) time.Duration) []time.Duration {
		out := make([]time.Duration, len(bds))
		for i, bd := range bds {
			out[i] = sel(bd)
		}
		sort.Slice(out, func(i, k int) bool { return out[i] < out[k] })
		return out
	}
	pct := func(s []time.Duration, q float64) time.Duration {
		return s[int(q*float64(len(s)-1))]
	}
	for _, row := range []struct {
		name string
		sel  func(jobBreakdown) time.Duration
	}{
		{"job queue wait", func(b jobBreakdown) time.Duration { return b.queue }},
		{"job compute", func(b jobBreakdown) time.Duration { return b.compute }},
		{"job total", func(b jobBreakdown) time.Duration { return b.total }},
	} {
		s := pick(row.sel)
		fmt.Printf("%-19s p50 %v  p95 %v  p99 %v  max %v\n",
			row.name, pct(s, 0.50), pct(s, 0.95), pct(s, 0.99), pct(s, 1))
	}
}

// pollDone waits for one job to reach a terminal state and returns its
// server-reported latency breakdown. In fleet mode a done job must also
// carry fleet-survival rows — an empty result is a failure.
func pollDone(client *http.Client, base, id string, wantFleet bool) (jobBreakdown, error) {
	deadline := time.Now().Add(5 * time.Minute)
	for time.Now().Before(deadline) {
		resp, err := client.Get(base + "/jobs/" + id)
		if err != nil {
			return jobBreakdown{}, err
		}
		var st struct {
			State     string `json:"state"`
			Error     string `json:"error"`
			QueueMS   int64  `json:"queue_ms"`
			ComputeMS int64  `json:"compute_ms"`
			TotalMS   int64  `json:"total_ms"`
			Result    *struct {
				Fleet []json.RawMessage `json:"fleet"`
			} `json:"result"`
		}
		err = json.NewDecoder(resp.Body).Decode(&st)
		resp.Body.Close()
		if err != nil {
			return jobBreakdown{}, err
		}
		switch st.State {
		case "done":
			if wantFleet && (st.Result == nil || len(st.Result.Fleet) == 0) {
				return jobBreakdown{}, fmt.Errorf("done without fleet rows")
			}
			return jobBreakdown{
				queue:   time.Duration(st.QueueMS) * time.Millisecond,
				compute: time.Duration(st.ComputeMS) * time.Millisecond,
				total:   time.Duration(st.TotalMS) * time.Millisecond,
			}, nil
		case "failed", "canceled":
			return jobBreakdown{}, fmt.Errorf("finished %s: %s", st.State, st.Error)
		}
		time.Sleep(10 * time.Millisecond)
	}
	return jobBreakdown{}, fmt.Errorf("timed out")
}

// scrapeMetric pulls one counter value from the server's Prometheus
// exposition.
func scrapeMetric(client *http.Client, base, name string) (int64, error) {
	resp, err := client.Get(base + "/metrics")
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, name+" ") {
			continue
		}
		v, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimPrefix(line, name)), 64)
		if err != nil {
			return 0, err
		}
		return int64(v), nil
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, fmt.Errorf("metric %s not found", name)
}

// eventCounts tallies the server's structured event log by event name
// (GET /events?n=0 returns everything the ring holds as JSON Lines).
// An error means the endpoint is absent or the log is off — the caller
// then skips the balance check.
func eventCounts(client *http.Client, base string) (map[string]int64, error) {
	resp, err := client.Get(base + "/events?n=0")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("/events returned %d", resp.StatusCode)
	}
	counts := map[string]int64{}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<20)
	for sc.Scan() {
		var rec struct {
			Event string `json:"event"`
		}
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			return nil, fmt.Errorf("/events line not JSON: %w", err)
		}
		counts[rec.Event]++
	}
	return counts, sc.Err()
}

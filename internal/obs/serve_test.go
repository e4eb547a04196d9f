package obs_test

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"net/http"
	"strings"
	"testing"
	"time"

	"pimendure/internal/obs"

	// Linking internal/core registers the wear-engine counters
	// (core.hw.replay_iters_saved et al.), which the /metrics contract
	// below asserts are exposed even before any simulation ran.
	_ "pimendure/internal/core"
)

// get fetches a telemetry endpoint and returns status, content type and
// body.
func get(t *testing.T, addr, path string) (int, string, []byte) {
	t.Helper()
	resp, err := http.Get("http://" + addr + path)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, resp.Header.Get("Content-Type"), body
}

// The -serve lifecycle: Start binds the telemetry server, /metrics
// serves Prometheus text naming the wear-engine counters, /healthz,
// /series and /wear.png respond per contract, and Finish tears the
// server down.
func TestTelemetryServer(t *testing.T) {
	obs.Reset()
	defer func() {
		obs.Disable()
		obs.SetWearPNG(nil)
		obs.Reset()
	}()
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	run := obs.NewRun("servetest", fs)
	if err := fs.Parse([]string{"-serve", "localhost:0", "-trace=false"}); err != nil {
		t.Fatal(err)
	}
	if err := run.Start(); err != nil {
		t.Fatal(err)
	}
	addr := run.ServeBound()
	if addr == "" {
		t.Fatal("ServeBound empty after Start with -serve")
	}

	code, ctype, body := get(t, addr, "/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics status %d", code)
	}
	if !strings.HasPrefix(ctype, "text/plain") || !strings.Contains(ctype, "0.0.4") {
		t.Errorf("/metrics content type %q", ctype)
	}
	text := string(body)
	if !strings.Contains(text, "core.hw.replay_iters_saved") {
		t.Errorf("/metrics does not name core.hw.replay_iters_saved:\n%.400s", text)
	}
	if !strings.Contains(text, "\ncore_hw_replay_iters_saved ") {
		t.Errorf("/metrics lacks the sanitized sample line:\n%.400s", text)
	}

	code, _, body = get(t, addr, "/healthz")
	if code != http.StatusOK || strings.TrimSpace(string(body)) != "ok" {
		t.Errorf("/healthz = %d %q", code, body)
	}

	obs.NewSeries("serve.series", "v").Add(42)
	code, ctype, body = get(t, addr, "/series")
	if code != http.StatusOK || !strings.HasPrefix(ctype, "application/json") {
		t.Fatalf("/series = %d %q", code, ctype)
	}
	var series []struct {
		Name    string      `json:"name"`
		Samples [][]float64 `json:"samples"`
	}
	if err := json.Unmarshal(body, &series); err != nil {
		t.Fatalf("/series not JSON: %v", err)
	}
	if len(series) != 1 || series[0].Name != "serve.series" || series[0].Samples[0][0] != 42 {
		t.Errorf("/series payload: %s", body)
	}

	code, _, _ = get(t, addr, "/wear.png")
	if code != http.StatusNotFound {
		t.Errorf("/wear.png before a sampler = %d, want 404", code)
	}
	obs.SetWearPNG(func(w io.Writer) error {
		_, err := fmt.Fprint(w, "\x89PNG fake")
		return err
	})
	code, ctype, body = get(t, addr, "/wear.png")
	if code != http.StatusOK || ctype != "image/png" || !bytes.HasPrefix(body, []byte("\x89PNG")) {
		t.Errorf("/wear.png after SetWearPNG = %d %q %q", code, ctype, body)
	}
	// Named per-series sources coexist with the default and are selected
	// with ?name=.
	obs.RegisterWearPNG("serve.named", func(w io.Writer) error {
		_, err := fmt.Fprint(w, "\x89PNG named")
		return err
	})
	defer obs.RegisterWearPNG("serve.named", nil)
	code, _, body = get(t, addr, "/wear.png?name=serve.named")
	if code != http.StatusOK || !bytes.HasSuffix(body, []byte("named")) {
		t.Errorf("/wear.png?name=serve.named = %d %q", code, body)
	}
	code, _, _ = get(t, addr, "/wear.png?name=no.such.source")
	if code != http.StatusNotFound {
		t.Errorf("/wear.png with unknown name = %d, want 404", code)
	}

	if err := run.Finish(t.TempDir(), 0, io.Discard); err != nil {
		t.Fatal(err)
	}
	if _, err := http.Get("http://" + addr + "/healthz"); err == nil {
		t.Error("telemetry server still serving after Finish")
	}
}

// startServer boots a telemetry server on localhost:0 via the Run
// lifecycle and returns its bound address plus the Run for teardown.
func startServer(t *testing.T) (string, *obs.Run) {
	t.Helper()
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	run := obs.NewRun("servetest", fs)
	if err := fs.Parse([]string{"-serve", "localhost:0", "-trace=false"}); err != nil {
		t.Fatal(err)
	}
	if err := run.Start(); err != nil {
		t.Fatal(err)
	}
	return run.ServeBound(), run
}

// Stopping the telemetry server must let an in-flight response finish:
// Close now drains via http.Server.Shutdown instead of severing open
// connections mid-body. The handler parks after its first write until
// the test has initiated Close, so the remainder of the body crosses
// the server-stop boundary.
func TestTelemetryServerGracefulClose(t *testing.T) {
	obs.Reset()
	defer func() {
		obs.Disable()
		obs.Reset()
	}()
	addr, run := startServer(t)

	started := make(chan struct{})
	release := make(chan struct{})
	obs.Handle("/slow", http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain")
		fmt.Fprint(w, "first-half ")
		if f, ok := w.(http.Flusher); ok {
			f.Flush()
		}
		close(started)
		<-release
		fmt.Fprint(w, "second-half")
	}))
	defer obs.Handle("/slow", nil)

	type result struct {
		body string
		err  error
	}
	got := make(chan result, 1)
	go func() {
		resp, err := http.Get("http://" + addr + "/slow")
		if err != nil {
			got <- result{err: err}
			return
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		got <- result{body: string(body), err: err}
	}()

	<-started
	closed := make(chan error, 1)
	go func() { closed <- run.Finish(t.TempDir(), 0, io.Discard) }()
	// Finish is now blocked in Shutdown waiting on /slow; let the
	// handler complete and require the full body on the client side.
	release <- struct{}{}
	r := <-got
	if r.err != nil {
		t.Fatalf("in-flight request failed across server stop: %v", r.err)
	}
	if r.body != "first-half second-half" {
		t.Errorf("in-flight body truncated: %q", r.body)
	}
	if err := <-closed; err != nil {
		t.Fatal(err)
	}
}

// A handler still running past the shutdown deadline is severed by the
// Close fallback instead of hanging teardown forever.
func TestTelemetryServerCloseTimeout(t *testing.T) {
	obs.Reset()
	defer func() {
		obs.Disable()
		obs.Reset()
	}()
	restore := obs.SetTelemetryShutdownTimeout(50 * time.Millisecond)
	defer restore()
	addr, run := startServer(t)

	started := make(chan struct{})
	release := make(chan struct{})
	defer close(release)
	obs.Handle("/hang", http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		fmt.Fprint(w, "partial")
		if f, ok := w.(http.Flusher); ok {
			f.Flush()
		}
		close(started)
		<-release
	}))
	defer obs.Handle("/hang", nil)

	go func() {
		resp, err := http.Get("http://" + addr + "/hang")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
	}()
	<-started
	done := make(chan struct{})
	go func() {
		run.Close()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Close hung past the shutdown deadline on a stuck handler")
	}
}

// A failing renderer must surface as a 500, not a 200 with a truncated
// body: the handlers now stage the response in a buffer before writing.
func TestWearPNGHandlerErrorPath(t *testing.T) {
	obs.Reset()
	defer func() {
		obs.Disable()
		obs.SetWearPNG(nil)
		obs.Reset()
	}()
	addr, run := startServer(t)
	defer run.Close()

	obs.SetWearPNG(func(w io.Writer) error {
		fmt.Fprint(w, "\x89PNG partial garbage")
		return fmt.Errorf("render exploded mid-image")
	})
	code, ctype, body := get(t, addr, "/wear.png")
	if code != http.StatusInternalServerError {
		t.Errorf("failing renderer returned %d, want 500", code)
	}
	if strings.HasPrefix(ctype, "image/png") || bytes.Contains(body, []byte("\x89PNG")) {
		t.Errorf("error response leaked partial image bytes: %q (%s)", body, ctype)
	}
	if !strings.Contains(string(body), "render exploded") {
		t.Errorf("error response does not carry the renderer error: %q", body)
	}

	// A successful render advertises its exact length.
	obs.SetWearPNG(func(w io.Writer) error {
		_, err := fmt.Fprint(w, "\x89PNG ok")
		return err
	})
	resp, err := http.Get("http://" + addr + "/wear.png")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.ContentLength != int64(len("\x89PNG ok")) {
		t.Errorf("Content-Length = %d, want %d", resp.ContentLength, len("\x89PNG ok"))
	}
}

// The /series endpoint stays well-formed when a series carries NaN
// samples (a live CoV of an all-zero distribution does) — non-finite
// values encode as null instead of aborting the response body.
func TestSeriesHandlerNonFinite(t *testing.T) {
	obs.Reset()
	defer func() {
		obs.Disable()
		obs.Reset()
	}()
	addr, run := startServer(t)
	defer run.Close()

	obs.NewSeries("serve.nan", "v", "cov").Add(1, math.NaN())
	code, _, body := get(t, addr, "/series")
	if code != http.StatusOK {
		t.Fatalf("/series with NaN sample = %d: %s", code, body)
	}
	var series []struct {
		Samples [][]*float64 `json:"samples"`
	}
	if err := json.Unmarshal(body, &series); err != nil {
		t.Fatalf("/series with NaN sample not JSON: %v\n%s", err, body)
	}
	if len(series) != 1 || series[0].Samples[0][1] != nil {
		t.Errorf("NaN sample not encoded as null: %s", body)
	}
}

// The dynamic Handle registry: routes can be mounted after the server
// is up, subtree patterns match, built-ins are not shadowed, and
// removal restores 404.
func TestTelemetryServerDynamicHandlers(t *testing.T) {
	obs.Reset()
	defer func() {
		obs.Disable()
		obs.Reset()
	}()
	addr, run := startServer(t)
	defer run.Close()

	code, _, _ := get(t, addr, "/jobs/j1")
	if code != http.StatusNotFound {
		t.Fatalf("unmounted route = %d, want 404", code)
	}
	obs.Handle("/jobs/", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintf(w, "job:%s", strings.TrimPrefix(r.URL.Path, "/jobs/"))
	}))
	obs.Handle("/healthz", http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		fmt.Fprint(w, "shadowed")
	}))
	defer obs.Handle("/jobs/", nil)
	defer obs.Handle("/healthz", nil)

	code, _, body := get(t, addr, "/jobs/j1")
	if code != http.StatusOK || string(body) != "job:j1" {
		t.Errorf("subtree handler = %d %q", code, body)
	}
	if code, _, body = get(t, addr, "/healthz"); strings.TrimSpace(string(body)) != "ok" {
		t.Errorf("built-in /healthz was shadowed: %d %q", code, body)
	}
	obs.Handle("/jobs/", nil)
	if code, _, _ = get(t, addr, "/jobs/j1"); code != http.StatusNotFound {
		t.Errorf("removed handler still routed: %d", code)
	}
}

// The wear-PNG registry contract without a server: per-name
// registration and removal, sorted source listing, and deterministic
// default resolution — an explicit SetWearPNG default wins, otherwise
// the lexicographically smallest registered name serves the unnamed
// request regardless of registration order.
func TestWearPNGRegistry(t *testing.T) {
	render := func(tag string) func(io.Writer) error {
		return func(w io.Writer) error {
			_, err := io.WriteString(w, tag)
			return err
		}
	}
	resolve := func(name string) string {
		var buf bytes.Buffer
		if err := obs.WriteWearPNG(&buf, name); err != nil {
			return "ERR"
		}
		return buf.String()
	}
	defer func() {
		obs.SetWearPNG(nil)
		obs.RegisterWearPNG("z.series", nil)
		obs.RegisterWearPNG("a.series", nil)
	}()

	if got := resolve(""); got != "ERR" {
		t.Fatalf("empty registry resolved to %q", got)
	}
	obs.RegisterWearPNG("z.series", render("z"))
	obs.RegisterWearPNG("a.series", render("a"))
	if got := obs.WearPNGSources(); len(got) != 2 || got[0] != "a.series" || got[1] != "z.series" {
		t.Errorf("WearPNGSources = %v, want [a.series z.series]", got)
	}
	if got := resolve("z.series"); got != "z" {
		t.Errorf("named lookup = %q, want z", got)
	}
	if got := resolve(""); got != "a" {
		t.Errorf("unnamed lookup = %q, want a (smallest registered name)", got)
	}
	obs.SetWearPNG(render("default"))
	if got := resolve(""); got != "default" {
		t.Errorf("unnamed lookup with default installed = %q, want default", got)
	}
	obs.SetWearPNG(nil)
	obs.RegisterWearPNG("a.series", nil)
	if got := resolve(""); got != "z" {
		t.Errorf("unnamed lookup after removing a.series = %q, want z", got)
	}
	if got := resolve("a.series"); got != "ERR" {
		t.Errorf("removed name still resolves: %q", got)
	}
}

// The exposition must be well-formed Prometheus text: HELP/TYPE pairs
// preceding each sample, names restricted to the metric alphabet,
// zero-valued metrics included so an early scrape sees the full set, and
// timers exported as _seconds histogram families (cumulative le buckets
// closed by +Inf, then _sum and _count) plus the _max_seconds gauge.
func TestWritePrometheusFormat(t *testing.T) {
	withObs(t, func() {
		obs.GetCounter("prom.test.zero")
		obs.GetCounter("prom.test.some").Add(7)
		obs.GetGauge("prom.test.peak").Observe(9)
		obs.StartSpan("prom.test.stage").End()
		obs.GetHistogram("prom.test.bytes").Observe(100)
		var buf bytes.Buffer
		if err := obs.WritePrometheus(&buf); err != nil {
			t.Fatal(err)
		}
		out := buf.String()
		for _, want := range []string{
			"# HELP prom_test_zero prom.test.zero (counter)",
			"# TYPE prom_test_zero counter",
			"prom_test_zero 0",
			"prom_test_some 7",
			"prom_test_peak 9",
			"# TYPE prom_test_stage_seconds histogram",
			`prom_test_stage_seconds_bucket{le="+Inf"} 1`,
			"prom_test_stage_seconds_count 1",
			"# TYPE prom_test_stage_max_seconds gauge",
			"# TYPE prom_test_bytes histogram",
			`prom_test_bytes_bucket{le="127"} 1`,
			"prom_test_bytes_sum 100",
			"obs_events_recorded_total",
			"obs_log_recorded_total",
		} {
			if !strings.Contains(out, want) {
				t.Errorf("exposition missing %q:\n%s", want, out)
			}
		}
		seenHelp := map[string]bool{}
		histFamilies := map[string]bool{}
		for _, line := range strings.Split(strings.TrimSpace(out), "\n") {
			if strings.HasPrefix(line, "# HELP ") {
				seenHelp[strings.Fields(line)[2]] = true
				continue
			}
			if strings.HasPrefix(line, "# TYPE ") {
				f := strings.Fields(line)
				if !seenHelp[f[2]] {
					t.Errorf("TYPE before HELP: %s", line)
				}
				switch f[3] {
				case "counter", "gauge":
				case "histogram":
					histFamilies[f[2]] = true
				default:
					t.Errorf("bad TYPE: %s", line)
				}
				continue
			}
			f := strings.Fields(line)
			if len(f) != 2 {
				t.Errorf("malformed sample line: %q", line)
				continue
			}
			name := f[0]
			if br := strings.IndexByte(name, '{'); br >= 0 {
				// Only histogram buckets carry labels, and only le labels.
				labels := name[br:]
				name = name[:br]
				if !strings.HasSuffix(name, "_bucket") || !histFamilies[strings.TrimSuffix(name, "_bucket")] {
					t.Errorf("labeled sample outside a histogram family: %q", line)
				}
				if !strings.HasPrefix(labels, `{le="`) || !strings.HasSuffix(labels, `"}`) {
					t.Errorf("malformed le label block: %q", line)
				}
			}
			for i := 0; i < len(name); i++ {
				c := name[i]
				ok := c == '_' || c == ':' ||
					(c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
					(c >= '0' && c <= '9' && i > 0)
				if !ok {
					t.Errorf("metric name %q outside the Prometheus alphabet", name)
					break
				}
			}
		}
	})
}

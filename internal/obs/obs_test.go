package obs_test

import (
	"bytes"
	"flag"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"pimendure/internal/obs"
)

// withObs runs fn with the layer enabled against a clean registry and
// restores the disabled default afterwards. Tests in this package must
// not run in parallel: the registry is process-wide.
func withObs(t *testing.T, fn func()) {
	t.Helper()
	obs.Reset()
	obs.Enable()
	defer func() {
		obs.Disable()
		obs.Reset()
	}()
	fn()
}

// Counters must be exact under concurrent hammering from many
// goroutines — the pool workers of a sweep all add to the same totals.
func TestCounterConcurrentAccuracy(t *testing.T) {
	withObs(t, func() {
		c := obs.GetCounter("test.concurrent")
		const goroutines, perG = 16, 10000
		var wg sync.WaitGroup
		wg.Add(goroutines)
		for g := 0; g < goroutines; g++ {
			go func() {
				defer wg.Done()
				for i := 0; i < perG; i++ {
					c.Add(3)
				}
			}()
		}
		wg.Wait()
		if got, want := c.Value(), int64(goroutines*perG*3); got != want {
			t.Errorf("counter = %d, want %d", got, want)
		}
	})
}

// A gauge keeps the maximum observed value regardless of the order
// observations land in.
func TestGaugeWatermark(t *testing.T) {
	withObs(t, func() {
		g := obs.GetGauge("test.depth")
		var wg sync.WaitGroup
		for v := 1; v <= 100; v++ {
			wg.Add(1)
			go func(v int64) {
				defer wg.Done()
				g.Observe(v)
			}(int64(v))
		}
		wg.Wait()
		if got := g.Value(); got != 100 {
			t.Errorf("gauge watermark = %d, want 100", got)
		}
		g.Observe(5) // lower observation must not regress the watermark
		if got := g.Value(); got != 100 {
			t.Errorf("gauge watermark regressed to %d", got)
		}
	})
}

// GetCounter must hand back the same counter for the same name, so
// independent call sites accumulate into one total.
func TestRegistryIdentity(t *testing.T) {
	withObs(t, func() {
		a := obs.GetCounter("test.same")
		b := obs.GetCounter("test.same")
		if a != b {
			t.Fatal("GetCounter returned distinct counters for one name")
		}
		a.Add(1)
		b.Add(1)
		if got := a.Value(); got != 2 {
			t.Errorf("shared counter = %d, want 2", got)
		}
	})
}

// Spans nest: a child records under "parent/child", both stages appear
// in the capture, and the child's time is bounded by the parent's.
func TestSpanNesting(t *testing.T) {
	withObs(t, func() {
		root := obs.StartSpan("stage")
		child := root.Child("inner")
		time.Sleep(2 * time.Millisecond)
		child.End()
		grand := root.Child("inner") // same name accumulates on one timer
		grand.End()
		root.End()

		s := obs.Capture()
		byName := map[string]obs.Stage{}
		for _, st := range s.Stages {
			byName[st.Name] = st
		}
		parent, ok := byName["stage"]
		if !ok {
			t.Fatal("parent stage not captured")
		}
		inner, ok := byName["stage/inner"]
		if !ok {
			t.Fatal("child stage not captured under parent/child name")
		}
		if inner.Count != 2 {
			t.Errorf("child span count = %d, want 2", inner.Count)
		}
		if parent.Count != 1 {
			t.Errorf("parent span count = %d, want 1", parent.Count)
		}
		if inner.Seconds > parent.Seconds {
			t.Errorf("child time %.6fs exceeds parent %.6fs", inner.Seconds, parent.Seconds)
		}
	})
}

// Concurrent spans on one stage accumulate both count and time.
func TestSpanConcurrent(t *testing.T) {
	withObs(t, func() {
		var wg sync.WaitGroup
		for i := 0; i < 8; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				sp := obs.StartSpan("test.worker")
				time.Sleep(time.Millisecond)
				sp.End()
			}()
		}
		wg.Wait()
		s := obs.Capture()
		for _, st := range s.Stages {
			if st.Name == "test.worker" {
				if st.Count != 8 {
					t.Errorf("span count = %d, want 8", st.Count)
				}
				if st.Seconds <= 0 {
					t.Errorf("span total = %v, want > 0", st.Seconds)
				}
				return
			}
		}
		t.Fatal("stage test.worker not captured")
	})
}

// Disabled (the default), every primitive must record nothing and the
// zero Span must be safe to End and to derive children from.
func TestDisabledNoOp(t *testing.T) {
	obs.Reset()
	obs.Disable()
	c := obs.GetCounter("test.disabled")
	c.Add(42)
	g := obs.GetGauge("test.disabled.gauge")
	g.Observe(7)
	sp := obs.StartSpan("test.disabled.stage")
	child := sp.Child("inner")
	child.End()
	sp.End()

	if got := c.Value(); got != 0 {
		t.Errorf("disabled counter recorded %d", got)
	}
	if got := g.Value(); got != 0 {
		t.Errorf("disabled gauge recorded %d", got)
	}
	s := obs.Capture()
	if len(s.Stages) != 0 || len(s.Counters) != 0 || len(s.Gauges) != 0 {
		t.Errorf("disabled capture not empty: %+v", s)
	}
}

// Reset zeroes values but keeps registrations (package-level handles
// stay live).
func TestResetKeepsHandles(t *testing.T) {
	withObs(t, func() {
		c := obs.GetCounter("test.reset")
		c.Add(5)
		obs.Reset()
		if got := c.Value(); got != 0 {
			t.Errorf("counter after Reset = %d", got)
		}
		c.Add(2)
		if got := c.Value(); got != 2 {
			t.Errorf("counter handle dead after Reset: %d", got)
		}
	})
}

// A manifest must round-trip through its JSON file bit-exactly on the
// fields a reader consumes: config, seed, stages, counters.
func TestManifestRoundTrip(t *testing.T) {
	withObs(t, func() {
		obs.GetCounter("test.writes").Add(12345)
		obs.GetGauge("test.depth").Observe(9)
		sp := obs.StartSpan("test.stage")
		sp.End()

		m := obs.NewManifest("unittest")
		m.Config = map[string]any{"iters": 100.0, "bench": "mult"}
		m.Seed = 77
		m.Finish()

		dir := t.TempDir()
		if err := m.WriteFile(dir); err != nil {
			t.Fatal(err)
		}
		path := m.Path(dir)
		if filepath.Base(path) != "manifest_unittest.json" {
			t.Errorf("manifest path = %s", path)
		}
		back, err := obs.ReadManifest(path)
		if err != nil {
			t.Fatal(err)
		}
		if back.Command != "unittest" || back.Seed != 77 {
			t.Errorf("round-trip lost identity: %+v", back)
		}
		if back.Config["iters"] != 100.0 || back.Config["bench"] != "mult" {
			t.Errorf("round-trip lost config: %+v", back.Config)
		}
		if back.Counters["test.writes"] != 12345 {
			t.Errorf("round-trip lost counters: %+v", back.Counters)
		}
		if back.Gauges["test.depth"] != 9 {
			t.Errorf("round-trip lost gauges: %+v", back.Gauges)
		}
		found := false
		for _, st := range back.Stages {
			if st.Name == "test.stage" && st.Count == 1 {
				found = true
			}
		}
		if !found {
			t.Errorf("round-trip lost stages: %+v", back.Stages)
		}
		if back.WallSeconds < 0 {
			t.Errorf("negative wall time %v", back.WallSeconds)
		}
	})
}

// The Run lifecycle must register flags, enable the layer, print the
// -metrics table and write the manifest.
func TestRunLifecycle(t *testing.T) {
	obs.Reset()
	defer func() {
		obs.Disable()
		obs.Reset()
	}()
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	run := obs.NewRun("clitest", fs)
	if err := fs.Parse([]string{"-metrics"}); err != nil {
		t.Fatal(err)
	}
	if err := run.Start(); err != nil {
		t.Fatal(err)
	}
	if !obs.Enabled() {
		t.Fatal("Start did not enable the layer")
	}
	obs.GetCounter("test.cli").Add(3)

	dir := t.TempDir()
	var buf bytes.Buffer
	if err := run.Finish(dir, 5, &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "test.cli") {
		t.Errorf("-metrics table missing counter:\n%s", buf.String())
	}
	m, err := obs.ReadManifest(filepath.Join(dir, "manifest_clitest.json"))
	if err != nil {
		t.Fatal(err)
	}
	if m.Counters["test.cli"] != 3 || m.Seed != 5 {
		t.Errorf("manifest wrong: %+v", m)
	}
}

// WriteTable must render stages and counters in a stable, aligned form.
func TestWriteTable(t *testing.T) {
	withObs(t, func() {
		obs.GetCounter("b.counter").Add(2)
		obs.GetCounter("a.counter").Add(1)
		sp := obs.StartSpan("some.stage")
		sp.End()
		// Duration histograms print as rounded durations, raw-value ones
		// to 4 significant digits — never as a 17-digit float.
		obs.GetDurationHistogram("table.latency").ObserveDuration(12287250 * time.Nanosecond)
		obs.GetHistogram("table.size").Observe(1234567)
		var buf bytes.Buffer
		if err := obs.WriteTable(&buf); err != nil {
			t.Fatal(err)
		}
		out := buf.String()
		for _, want := range []string{"some.stage", "a.counter", "b.counter", "12.287ms", "1.235e+06"} {
			if !strings.Contains(out, want) {
				t.Errorf("table missing %q:\n%s", want, out)
			}
		}
		if strings.Index(out, "a.counter") > strings.Index(out, "b.counter") {
			t.Errorf("counters not sorted:\n%s", out)
		}
		if strings.Contains(out, "e-0") || strings.Contains(out, "1234567") {
			t.Errorf("histogram values not rounded:\n%s", out)
		}
	})
}

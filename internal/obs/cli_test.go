package obs_test

import (
	"encoding/json"
	"flag"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"pimendure/internal/obs"
)

// NewRun registers exactly the shared observability flags, with -trace
// defaulting on.
func TestRunFlagRegistration(t *testing.T) {
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	obs.NewRun("flagtest", fs)
	for name, wantDef := range map[string]string{
		"pprof":   "",
		"metrics": "false",
		"serve":   "",
		"trace":   "true",
	} {
		f := fs.Lookup(name)
		if f == nil {
			t.Errorf("flag -%s not registered", name)
			continue
		}
		if f.DefValue != wantDef {
			t.Errorf("-%s default %q, want %q", name, f.DefValue, wantDef)
		}
	}
}

// Finish records every flag registered on the run's FlagSet — the obs
// flags and the CLI's own — under its name at its parsed value, typed:
// numbers (durations in nanoseconds) as JSON numbers, booleans as
// booleans, and a flag without a getter as its text.
func TestRunManifestRecordsFlags(t *testing.T) {
	obs.Reset()
	defer func() {
		obs.Disable()
		obs.Reset()
	}()
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	run := obs.NewRun("flagcfg", fs)
	fs.Int("iters", 10000, "")
	fs.Int64("seed", 1, "")
	fs.Float64("sigma", 0, "")
	fs.String("tech", "MRAM", "")
	fs.Bool("hw", false, "")
	fs.Duration("retry-after", time.Second, "")
	fs.Func("label", "", func(string) error { return nil })
	if err := fs.Parse([]string{"-iters", "400", "-hw", "-sigma", "0.25", "-trace=false", "-events=false"}); err != nil {
		t.Fatal(err)
	}
	if err := run.Start(); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := run.Finish(dir, 1, io.Discard); err != nil {
		t.Fatal(err)
	}
	m, err := obs.ReadManifest(filepath.Join(dir, "manifest_flagcfg.json"))
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]any{
		"iters": 400.0, "seed": 1.0, "sigma": 0.25, "tech": "MRAM", "hw": true,
		"retry-after": 1e9, "label": "",
		"pprof": "", "metrics": false, "serve": "", "trace": false, "events": false,
	}
	if !reflect.DeepEqual(m.Config, want) {
		t.Errorf("manifest config = %v, want %v", m.Config, want)
	}
	n := 0
	fs.VisitAll(func(*flag.Flag) { n++ })
	if len(m.Config) != n {
		t.Errorf("manifest records %d of %d registered flags", len(m.Config), n)
	}
}

// -pprof localhost:0 binds a live profiling server for the duration of
// the run and Finish tears it down.
func TestRunPprofServer(t *testing.T) {
	obs.Reset()
	defer func() {
		obs.Disable()
		obs.Reset()
	}()
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	run := obs.NewRun("pprofttest", fs)
	if err := fs.Parse([]string{"-pprof", "localhost:0", "-trace=false"}); err != nil {
		t.Fatal(err)
	}
	if err := run.Start(); err != nil {
		t.Fatal(err)
	}
	addr := run.PprofBound()
	if addr == "" {
		t.Fatal("PprofBound empty after Start with -pprof")
	}
	resp, err := http.Get("http://" + addr + "/debug/pprof/cmdline")
	if err != nil {
		t.Fatalf("pprof endpoint: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("pprof cmdline status %d", resp.StatusCode)
	}
	if err := run.Finish(t.TempDir(), 0, io.Discard); err != nil {
		t.Fatal(err)
	}
	if _, err := http.Get("http://" + addr + "/debug/pprof/cmdline"); err == nil {
		t.Error("pprof server still serving after Finish")
	}
	if run.PprofBound() != "" {
		t.Error("PprofBound non-empty after Close")
	}
}

// A bad -pprof address must fail Start, not die later in the background.
func TestRunStartBadAddress(t *testing.T) {
	obs.Reset()
	defer func() {
		obs.Disable()
		obs.Reset()
	}()
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	run := obs.NewRun("badaddr", fs)
	if err := fs.Parse([]string{"-serve", "999.999.999.999:0"}); err != nil {
		t.Fatal(err)
	}
	if err := run.Start(); err == nil {
		run.Close()
		t.Fatal("Start accepted an unbindable -serve address")
	}
}

// With -trace (the default), Finish writes the Chrome trace artifact and
// stamps the ring stats into the manifest; registered series land as CSV
// and JSON artifacts next to it.
func TestRunFinishArtifacts(t *testing.T) {
	obs.Reset()
	defer func() {
		obs.Disable()
		obs.DisableEvents()
		obs.Reset()
	}()
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	run := obs.NewRun("arttest", fs)
	if err := fs.Parse(nil); err != nil {
		t.Fatal(err)
	}
	if err := run.Start(); err != nil {
		t.Fatal(err)
	}
	if !obs.EventsEnabled() {
		t.Fatal("default -trace did not enable the event ring")
	}
	obs.StartSpan("art.stage").End()
	obs.NewSeries("art.series", "v").Add(1)

	dir := t.TempDir()
	if err := run.Finish(dir, 0, io.Discard); err != nil {
		t.Fatal(err)
	}

	raw, err := os.ReadFile(filepath.Join(dir, "trace_arttest.json"))
	if err != nil {
		t.Fatalf("trace artifact: %v", err)
	}
	var doc struct {
		TraceEvents []json.RawMessage `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("trace artifact not valid JSON: %v", err)
	}
	if len(doc.TraceEvents) == 0 {
		t.Error("trace artifact has no events")
	}
	if run.Manifest().Events == nil || run.Manifest().Events.Recorded == 0 {
		t.Error("manifest lacks event-ring stats")
	}
	if _, err := os.Stat(filepath.Join(dir, "series_art.series.csv")); err != nil {
		t.Errorf("series CSV artifact: %v", err)
	}
	if _, err := os.Stat(filepath.Join(dir, "series_art.series.json")); err != nil {
		t.Errorf("series JSON artifact: %v", err)
	}
}

// With -trace=false no event is recorded and no trace artifact appears.
func TestRunTraceOptOut(t *testing.T) {
	obs.Reset()
	defer func() {
		obs.Disable()
		obs.Reset()
	}()
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	run := obs.NewRun("notrace", fs)
	if err := fs.Parse([]string{"-trace=false"}); err != nil {
		t.Fatal(err)
	}
	if err := run.Start(); err != nil {
		t.Fatal(err)
	}
	obs.StartSpan("notrace.stage").End()
	dir := t.TempDir()
	if err := run.Finish(dir, 0, io.Discard); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, "trace_notrace.json")); !os.IsNotExist(err) {
		t.Error("trace artifact written despite -trace=false")
	}
}

package obs

import (
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"path/filepath"
	"strings"
)

// Run bundles the observability lifecycle every CLI shares: the -pprof,
// -metrics, -serve, -trace and -events flags, enabling the layer (and
// the span-event ring and structured log) for the process, serving live
// telemetry, and emitting the run manifest plus trace/series/event-log
// artifacts. Usage:
//
//	run := obs.NewRun("pimsim", flag.CommandLine)
//	flag.Parse()
//	run.Start()
//	... work ...
//	run.Finish("out", seed, os.Stdout)
type Run struct {
	// PprofAddr, when non-empty, serves net/http/pprof on that address
	// for the duration of the run (set by -pprof).
	PprofAddr string
	// Metrics makes Finish print the counter/stage table (set by
	// -metrics).
	Metrics bool
	// ServeAddr, when non-empty, serves live telemetry — /metrics
	// (Prometheus text), /healthz, /series, /wear.png — on that address
	// for the duration of the run (set by -serve).
	ServeAddr string
	// Trace enables the span event ring and makes Finish write the
	// Chrome trace_event export to out/trace_<cmd>.json (set by -trace,
	// default on).
	Trace bool
	// Events enables the structured JSONL event log and makes Finish
	// write out/events_<cmd>.jsonl when any records were logged (set by
	// -events, default on). The log feeds the -serve /events endpoint.
	Events bool

	manifest  *Manifest
	flags     *flag.FlagSet
	pprofLn   net.Listener
	pprofSrv  *http.Server
	telemetry *telemetryServer
}

// NewRun creates the lifecycle for the named command and registers the
// -pprof, -metrics, -serve, -trace and -events flags on fs (pass
// flag.CommandLine for whole-process CLIs, or a subcommand's FlagSet).
// Finish records every flag registered on fs as the manifest's config.
func NewRun(cmd string, fs *flag.FlagSet) *Run {
	r := &Run{manifest: NewManifest(cmd), flags: fs}
	fs.StringVar(&r.PprofAddr, "pprof", "", "serve net/http/pprof on this address (e.g. localhost:6060)")
	fs.BoolVar(&r.Metrics, "metrics", false, "print the observability counter/stage table at exit")
	fs.StringVar(&r.ServeAddr, "serve", "", "serve live telemetry (/metrics, /healthz, /series, /events, /dashboard, /wear.png) on this address (e.g. localhost:8090)")
	fs.BoolVar(&r.Trace, "trace", true, "record span begin/end events and write out/trace_<cmd>.json (Chrome trace_event format)")
	fs.BoolVar(&r.Events, "events", true, "record structured events and write out/events_<cmd>.jsonl (JSON Lines)")
	return r
}

// Start enables the observability layer (and, with -trace, the span
// event ring), then binds the -pprof and -serve servers. Call it right
// after flag parsing. Listeners are bound synchronously so a bad address
// errors here; the servers run until Finish.
func (r *Run) Start() error {
	Enable()
	if r.Trace {
		EnableEvents(DefaultEventCapacity)
	}
	if r.Events {
		EnableLog(DefaultLogCapacity)
	}
	if r.PprofAddr != "" {
		mux := http.NewServeMux()
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		ln, err := net.Listen("tcp", r.PprofAddr)
		if err != nil {
			return fmt.Errorf("obs: pprof server on %s: %w", r.PprofAddr, err)
		}
		r.pprofLn = ln
		r.pprofSrv = &http.Server{Handler: mux}
		go func() { _ = r.pprofSrv.Serve(ln) }() // best-effort debug endpoint
	}
	if r.ServeAddr != "" {
		ts, err := startTelemetryServer(r.ServeAddr)
		if err != nil {
			r.Close()
			return err
		}
		r.telemetry = ts
	}
	return nil
}

// ServeBound returns the telemetry server's bound address ("" when
// -serve was not given).
func (r *Run) ServeBound() string {
	if r.telemetry == nil {
		return ""
	}
	return r.telemetry.Addr()
}

// Close shuts down the pprof and telemetry servers, if running. Finish
// calls it; it is safe to call twice.
func (r *Run) Close() {
	if r.pprofSrv != nil {
		_ = r.pprofSrv.Close()
		r.pprofSrv, r.pprofLn = nil, nil
	}
	if r.telemetry != nil {
		_ = r.telemetry.Close()
		r.telemetry = nil
	}
}

// Finish completes the run: it folds the observability snapshot into the
// manifest, writes manifest_<cmd>.json under outDir, exports the span
// event ring as trace_<cmd>.json and every registered Series as
// series_<name>.{csv,json}, prints the counter/stage table when -metrics
// was given, and shuts the telemetry servers down. The manifest's config
// is every flag registered on the run's FlagSet at its resolved value;
// seed is the CLI's random seed (0 if none).
func (r *Run) Finish(outDir string, seed int64, w io.Writer) error {
	defer r.Close()
	r.manifest.Config = flagConfig(r.flags)
	r.manifest.Seed = seed
	r.manifest.Finish()
	if r.Metrics {
		if err := WriteTable(w); err != nil {
			return err
		}
	}
	if err := r.manifest.WriteFile(outDir); err != nil {
		return fmt.Errorf("obs: writing manifest: %w", err)
	}
	if r.Trace && CaptureEventStats().Recorded > 0 {
		path := filepath.Join(outDir, "trace_"+r.manifest.Command+".json")
		if err := writeFileAtomic(path, WriteTrace); err != nil {
			return fmt.Errorf("obs: writing trace: %w", err)
		}
	}
	if r.Events && CaptureLogStats().Recorded > 0 {
		path := filepath.Join(outDir, "events_"+r.manifest.Command+".jsonl")
		if err := writeFileAtomic(path, func(w io.Writer) error {
			return WriteLogJSONL(w, 0)
		}); err != nil {
			return fmt.Errorf("obs: writing event log: %w", err)
		}
	}
	for _, s := range AllSeries() {
		base := filepath.Join(outDir, "series_"+fsSafe(s.Name()))
		if err := writeFileAtomic(base+".csv", s.WriteCSV); err != nil {
			return fmt.Errorf("obs: writing series: %w", err)
		}
		one := s
		if err := writeFileAtomic(base+".json", func(w io.Writer) error {
			data, err := one.MarshalJSON()
			if err != nil {
				return err
			}
			_, err = w.Write(append(data, '\n'))
			return err
		}); err != nil {
			return fmt.Errorf("obs: writing series: %w", err)
		}
	}
	return nil
}

// flagConfig maps every flag registered on fs to its current value,
// typed through flag.Getter (ints and durations marshal as JSON numbers,
// bools as booleans); a flag without a getter records its String form.
func flagConfig(fs *flag.FlagSet) map[string]any {
	config := map[string]any{}
	fs.VisitAll(func(f *flag.Flag) {
		config[f.Name] = f.Value.String()
		if g, ok := f.Value.(flag.Getter); ok {
			config[f.Name] = g.Get()
		}
	})
	return config
}

// Manifest exposes the run's manifest (tests inspect it; CLIs normally
// only need Finish).
func (r *Run) Manifest() *Manifest { return r.manifest }

// fsSafe maps a telemetry name onto the filename alphabet: anything
// outside [a-zA-Z0-9._+-] becomes '_' ("wear.mult.RaxBs+Hw" survives).
func fsSafe(name string) string {
	return strings.Map(func(c rune) rune {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9',
			c == '.', c == '_', c == '+', c == '-':
			return c
		default:
			return '_'
		}
	}, name)
}

// writeFileAtomic streams fn into path's directory, creating it first.
func writeFileAtomic(path string, fn func(io.Writer) error) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := fn(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"time"
)

// Helpers that only this package's tests use.

// PprofBound returns the pprof server's bound address ("" when -pprof
// was not given) — with "-pprof localhost:0" this is where it landed.
func (r *Run) PprofBound() string {
	if r.pprofLn == nil {
		return ""
	}
	return r.pprofLn.Addr().String()
}

// EventsEnabled reports whether span events are being recorded.
func EventsEnabled() bool {
	return events.on.Load()
}

// ReadManifest reads back a manifest written by WriteFile.
func ReadManifest(path string) (*Manifest, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var m Manifest
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("obs: %s: %w", path, err)
	}
	return &m, nil
}

// SetTelemetryShutdownTimeout overrides the graceful-close deadline and
// returns a func restoring the previous value — a test hook for the
// Close-after-timeout fallback path.
func SetTelemetryShutdownTimeout(d time.Duration) func() {
	old := telemetryShutdownTimeout
	telemetryShutdownTimeout = d
	return func() { telemetryShutdownTimeout = old }
}

// SetWearPNG installs the unnamed default renderer behind the /wear.png
// endpoint — the source served when no ?name= selector is given. Pass
// nil to uninstall. Concurrent runs that each own a series should use
// RegisterWearPNG instead.
func SetWearPNG(fn func(io.Writer) error) {
	wearPNG.mu.Lock()
	wearPNG.def = fn
	wearPNG.mu.Unlock()
}

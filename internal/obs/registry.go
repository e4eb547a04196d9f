package obs

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"sync"
	"time"
)

// registry is the process-wide home of every counter, gauge and timer.
// Lookup/creation takes the mutex; the recording fast paths touch only
// the returned struct's atomics.
var registry = struct {
	mu         sync.Mutex
	counters   map[string]*Counter
	gauges     map[string]*Gauge
	timers     map[string]*Timer
	histograms map[string]*Histogram
	kinds      map[string]string // name -> "counter" | "gauge" | "timer" | "histogram"
}{
	counters:   map[string]*Counter{},
	gauges:     map[string]*Gauge{},
	timers:     map[string]*Timer{},
	histograms: map[string]*Histogram{},
	kinds:      map[string]string{},
}

// claimName records a name's kind, panicking when the name is already
// registered as a different kind. Without the guard a counter and a
// gauge sharing one name would silently diverge into two manifest
// entries; the registry refuses instead, loudly, at registration time.
func claimName(name, kind string) {
	if prev, ok := registry.kinds[name]; ok && prev != kind {
		panic(fmt.Sprintf("obs: metric name %q already registered as a %s, cannot re-register as a %s", name, prev, kind))
	}
	registry.kinds[name] = kind
}

// GetCounter returns the process-wide counter with the given name,
// creating and registering it on first use. Typically called once at
// package init and kept in a var. Registering a name already held by a
// gauge or timer panics.
func GetCounter(name string) *Counter {
	registry.mu.Lock()
	defer registry.mu.Unlock()
	c, ok := registry.counters[name]
	if !ok {
		claimName(name, "counter")
		c = &Counter{name: name}
		registry.counters[name] = c
	}
	return c
}

// GetGauge returns the process-wide max-watermark gauge with the given
// name, creating it on first use. Registering a name already held by a
// counter or timer panics.
func GetGauge(name string) *Gauge {
	registry.mu.Lock()
	defer registry.mu.Unlock()
	g, ok := registry.gauges[name]
	if !ok {
		claimName(name, "gauge")
		g = &Gauge{name: name}
		registry.gauges[name] = g
	}
	return g
}

// getTimer returns the stage timer with the given name, creating it on
// first use. Timers are reached through StartSpan rather than directly.
func getTimer(name string) *Timer {
	registry.mu.Lock()
	defer registry.mu.Unlock()
	t, ok := registry.timers[name]
	if !ok {
		claimName(name, "timer")
		t = &Timer{name: name}
		registry.timers[name] = t
	}
	return t
}

// Reset zeroes every registered counter, gauge and timer (the
// registrations themselves survive, so package-level handles stay
// valid). Tests and benchmark harnesses use it to isolate measurement
// regions; CLIs never need it.
func Reset() {
	registry.mu.Lock()
	defer registry.mu.Unlock()
	for _, c := range registry.counters {
		c.v.Store(0)
	}
	for _, g := range registry.gauges {
		g.max.Store(0)
	}
	for _, t := range registry.timers {
		t.count.Store(0)
		t.ns.Store(0)
		t.maxNS.Store(0)
		for i := range t.buckets {
			t.buckets[i].Store(0)
		}
	}
	for _, h := range registry.histograms {
		h.count.Store(0)
		h.sum.Store(0)
		for i := range h.buckets {
			h.buckets[i].Store(0)
		}
	}
	resetSeries()
	resetLog()
}

// Stage is one named timer's totals inside a Snapshot or Manifest:
// how many spans completed under the name, their summed wall time, and
// the longest single span (the outlier watermark).
type Stage struct {
	Name       string  `json:"name"`
	Count      int64   `json:"count"`
	Seconds    float64 `json:"seconds"`
	MaxSeconds float64 `json:"max_seconds,omitempty"`
}

// Snapshot is a point-in-time copy of the whole registry, safe to use
// after further recording continues.
type Snapshot struct {
	Counters   map[string]int64    `json:"counters,omitempty"`
	Gauges     map[string]int64    `json:"gauges,omitempty"`
	Stages     []Stage             `json:"stages,omitempty"`
	Histograms []HistogramSnapshot `json:"histograms,omitempty"`
}

// Capture snapshots every registered counter, gauge and stage timer.
// Zero-valued entries are omitted so a snapshot reflects what the run
// actually exercised. Stages are sorted by name, which groups nested
// "parent/child" stages under their parent.
func Capture() Snapshot {
	registry.mu.Lock()
	defer registry.mu.Unlock()
	s := Snapshot{Counters: map[string]int64{}, Gauges: map[string]int64{}}
	for name, c := range registry.counters {
		if v := c.v.Load(); v != 0 {
			s.Counters[name] = v
		}
	}
	for name, g := range registry.gauges {
		if v := g.max.Load(); v != 0 {
			s.Gauges[name] = v
		}
	}
	for name, t := range registry.timers {
		if n := t.count.Load(); n != 0 {
			s.Stages = append(s.Stages, Stage{
				Name:       name,
				Count:      n,
				Seconds:    time.Duration(t.ns.Load()).Seconds(),
				MaxSeconds: time.Duration(t.maxNS.Load()).Seconds(),
			})
		}
	}
	for _, h := range registry.histograms {
		if h.count.Load() != 0 {
			s.Histograms = append(s.Histograms, h.Snapshot())
		}
	}
	sort.Slice(s.Stages, func(i, j int) bool { return s.Stages[i].Name < s.Stages[j].Name })
	sort.Slice(s.Histograms, func(i, j int) bool { return s.Histograms[i].Name < s.Histograms[j].Name })
	return s
}

// WriteTable renders the current registry state as an aligned text
// table — the output behind every CLI's -metrics flag.
func WriteTable(w io.Writer) error {
	s := Capture()
	// Durations print rounded to the microsecond; raw values keep 4
	// significant digits.
	dur := func(sec float64) string {
		return time.Duration(sec * float64(time.Second)).Round(time.Microsecond).String()
	}
	if len(s.Stages) > 0 {
		if _, err := fmt.Fprintf(w, "%-40s %10s %14s %14s\n", "stage", "spans", "total", "max span"); err != nil {
			return err
		}
		for _, st := range s.Stages {
			if _, err := fmt.Fprintf(w, "%-40s %10d %14s %14s\n", st.Name, st.Count, dur(st.Seconds), dur(st.MaxSeconds)); err != nil {
				return err
			}
		}
	}
	if len(s.Histograms) > 0 {
		if _, err := fmt.Fprintf(w, "%-40s %10s %14s %14s %14s\n", "histogram", "count", "sum", "p50", "p99"); err != nil {
			return err
		}
		for _, h := range s.Histograms {
			val := func(v float64) string {
				if h.seconds {
					return dur(v)
				}
				return strconv.FormatFloat(v, 'g', 4, 64)
			}
			if _, err := fmt.Fprintf(w, "%-40s %10d %14s %14s %14s\n",
				h.Name, h.Count, val(h.Sum), val(h.Quantile(0.50)), val(h.Quantile(0.99))); err != nil {
				return err
			}
		}
	}
	names := make([]string, 0, len(s.Counters)+len(s.Gauges))
	for name := range s.Counters {
		names = append(names, name)
	}
	for name := range s.Gauges {
		names = append(names, name+" (max)")
	}
	sort.Strings(names)
	if len(names) > 0 {
		if _, err := fmt.Fprintf(w, "%-40s %10s\n", "counter", "value"); err != nil {
			return err
		}
	}
	for _, name := range names {
		v, ok := s.Counters[name]
		if !ok {
			v = s.Gauges[name[:len(name)-len(" (max)")]]
		}
		if _, err := fmt.Fprintf(w, "%-40s %10d\n", name, v); err != nil {
			return err
		}
	}
	return nil
}

package obs

import (
	"fmt"
	"io"
	"sort"
	"strconv"
)

// promName sanitizes a registry name into the Prometheus metric-name
// alphabet [a-zA-Z0-9_:] ("core.hw.replay_iters_saved" →
// "core_hw_replay_iters_saved"). The original dotted name is preserved
// in the metric's HELP line.
func promName(name string) string {
	out := make([]byte, len(name))
	for i := 0; i < len(name); i++ {
		c := name[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_', c == ':',
			c >= '0' && c <= '9' && i > 0:
			out[i] = c
		default:
			out[i] = '_'
		}
	}
	return string(out)
}

// promSample is one exposition line inside a family: a name suffix
// ("_bucket", "_sum", "_count"), an optional label block
// (`{le="0.001"}`), and the value.
type promSample struct {
	suffix string
	labels string
	val    float64
}

// promMetric is one exposition family: HELP (carrying the original
// registry name), TYPE, and its samples. Counter and gauge families have
// exactly one unlabeled sample; histogram families carry the cumulative
// le-labeled buckets plus the _sum and _count series.
type promMetric struct {
	name    string // sanitized family name
	help    string // original registry name + kind
	typ     string // "counter" | "gauge" | "histogram"
	samples []promSample
}

func scalar(name, help, typ string, val float64) promMetric {
	return promMetric{name: name, help: help, typ: typ, samples: []promSample{{val: val}}}
}

// promLE formats a histogram bucket bound the way Prometheus clients
// expect: shortest float representation, "+Inf" for the closing bucket.
func promLE(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// histFamily converts a histogram snapshot into its exposition family —
// one HELP/TYPE histogram block covering the cumulative le-labeled
// _bucket series (always closed by le="+Inf" carrying the total count),
// then _sum and _count, per the Prometheus text-format convention.
func histFamily(s HistogramSnapshot, help string) promMetric {
	fam := promMetric{name: promName(s.Name), help: help, typ: "histogram"}
	var cum int64
	for _, b := range s.Buckets {
		cum += b.Count
		fam.samples = append(fam.samples, promSample{
			suffix: "_bucket", labels: `{le="` + promLE(b.LE) + `"}`, val: float64(cum),
		})
	}
	fam.samples = append(fam.samples,
		promSample{suffix: "_bucket", labels: `{le="+Inf"}`, val: float64(s.Count)},
		promSample{suffix: "_sum", val: s.Sum},
		promSample{suffix: "_count", val: float64(s.Count)},
	)
	return fam
}

// WritePrometheus renders every registered counter, gauge, timer and
// histogram in the Prometheus text exposition format (version 0.0.4) —
// the payload behind the -serve /metrics endpoint. Unlike Capture it
// includes zero-valued metrics, so a scrape early in a run already shows
// the full metric set. Each timer exports a "<name>_seconds" duration
// histogram (cumulative le buckets, _sum, _count) plus the
// "<name>_max_seconds" outlier gauge; histograms registered through
// GetHistogram/GetDurationHistogram export the same shape under their
// own family name.
func WritePrometheus(w io.Writer) error {
	registry.mu.Lock()
	metrics := make([]promMetric, 0,
		len(registry.counters)+len(registry.gauges)+4*len(registry.timers)+3*len(registry.histograms))
	for name, c := range registry.counters {
		metrics = append(metrics, scalar(promName(name), name+" (counter)", "counter", float64(c.v.Load())))
	}
	for name, g := range registry.gauges {
		metrics = append(metrics, scalar(promName(name), name+" (max watermark gauge)", "gauge", float64(g.max.Load())))
	}
	for name, t := range registry.timers {
		metrics = append(metrics,
			histFamily(t.Histogram(), name+" span duration (timer histogram)"),
			scalar(promName(name)+"_max_seconds",
				name+" longest single span (timer)", "gauge", t.Max().Seconds()))
	}
	for name, h := range registry.histograms {
		snap := h.Snapshot()
		if h.scale != 1 {
			snap.Name = name + "_seconds"
		}
		metrics = append(metrics, histFamily(snap, name+" (histogram)"))
	}
	registry.mu.Unlock()

	es := CaptureEventStats()
	ls := CaptureLogStats()
	metrics = append(metrics,
		scalar("obs_events_recorded_total", "span events recorded on the event ring", "counter", float64(es.Recorded)),
		scalar("obs_events_dropped_total", "span events dropped by the bounded ring (drop-oldest)", "counter", float64(es.Dropped)),
		scalar("obs_log_recorded_total", "structured log records accepted by the bounded event log", "counter", float64(ls.Recorded)),
		scalar("obs_log_dropped_total", "structured log records dropped by the bounded event log (drop-oldest)", "counter", float64(ls.Dropped)),
	)
	sort.Slice(metrics, func(i, j int) bool { return metrics[i].name < metrics[j].name })

	for _, m := range metrics {
		if _, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", m.name, m.help, m.name, m.typ); err != nil {
			return err
		}
		for _, s := range m.samples {
			if _, err := fmt.Fprintf(w, "%s%s%s %g\n", m.name, s.suffix, s.labels, s.val); err != nil {
				return err
			}
		}
	}
	return nil
}

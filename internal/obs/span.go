package obs

import (
	"sync/atomic"
	"time"
)

// Timer accumulates completed spans for one stage name: a duration
// Histogram (count, summed wall time and the log-bucketed distribution,
// so stage timings export as full distributions — p50/p99 of an epoch,
// not just mean and max) plus the longest single span (a max
// watermark, so a 10-second outlier epoch stays visible inside an
// hour-long total). Timers are created implicitly by StartSpan and
// read back through Capture/WriteTable; concurrent spans (pool workers
// timing the same stage) accumulate atomically.
type Timer struct {
	hist  Histogram
	maxNS atomic.Int64
}

// Count returns how many spans have completed on this timer.
func (t *Timer) Count() int64 { return t.hist.Count() }

// Total returns the summed wall time of completed spans.
func (t *Timer) Total() time.Duration { return time.Duration(t.hist.sum.Load()) }

// Max returns the longest single completed span.
func (t *Timer) Max() time.Duration { return time.Duration(t.maxNS.Load()) }

// Histogram snapshots the timer's span-duration distribution in seconds
// — count, sum, and the non-empty log buckets, under the exposition
// family name "<name>_seconds".
func (t *Timer) Histogram() HistogramSnapshot {
	s := t.hist.Snapshot()
	s.Name += "_seconds"
	s.Sum = t.Total().Seconds() // the same float as the stage's Capture total
	return s
}

// Span is one in-flight timing of a named stage. The zero Span (what
// StartSpan returns while the layer is disabled) is valid: End and Child
// on it are no-ops, so call sites need no enabled-checks of their own.
type Span struct {
	t     *Timer
	start time.Time
	tid   int64 // goroutine id for event emission; 0 = events off at start
}

// StartSpan begins timing the named stage. Stage names are hierarchical
// by convention — "pim.sweep", "core.simulate/hw" — and Child derives
// them mechanically. Disabled, it returns the zero Span at the cost of
// one atomic load. While event recording is on (EnableEvents), the span
// additionally emits a begin mark onto the event ring.
func StartSpan(name string) Span {
	if !enabled.Load() {
		return Span{}
	}
	sp := Span{t: getTimer(name), start: time.Now()}
	if tid := eventTID(); tid != 0 {
		sp.tid = tid
		recordEvent(EventBegin, name, tid)
	}
	return sp
}

// End stops the span and accumulates its wall time under the stage name,
// raising the stage's max-single-span watermark when this span is the
// longest seen. End on the zero Span is a no-op; spans started while
// enabled record even if the layer was disabled in between (the run is
// winding down).
func (s Span) End() {
	if s.t == nil {
		return
	}
	d := int64(time.Since(s.start))
	s.t.hist.observe(d)
	for {
		cur := s.t.maxNS.Load()
		if d <= cur || s.t.maxNS.CompareAndSwap(cur, d) {
			break
		}
	}
	if s.tid != 0 {
		recordEvent(EventEnd, s.t.hist.name, s.tid)
	}
}

// Child starts a span nested under this one: the stage name is
// "<parent>/<name>", so captures and manifests sort children under
// their parent stage. Child of the zero Span is the zero Span — a
// disabled parent disables the whole subtree.
func (s Span) Child(name string) Span {
	if s.t == nil {
		return Span{}
	}
	sp := Span{t: getTimer(s.t.hist.name + "/" + name), start: time.Now()}
	if tid := eventTID(); tid != 0 {
		sp.tid = tid
		recordEvent(EventBegin, sp.t.hist.name, tid)
	}
	return sp
}

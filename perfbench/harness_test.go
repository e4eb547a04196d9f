package main

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"reflect"
	"testing"
	"time"

	"pimendure/internal/serve"
)

func TestTailIsHighestPercentileWithTenBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64 // percentile
	}{{5, 50}, {39, 50}, {40, 75}, {100, 90}, {199, 90}, {200, 95}, {660, 95}, {1000, 99}, {20000, 99.9}} {
		xs := make([]float64, c.n)
		for i := range xs {
			xs[len(xs)-1-i] = float64(i + 1) // unsorted input, values 1..n
		}
		v, pct := tail(xs)
		if pct != c.want {
			t.Errorf("%d samples: tail at p%v, want p%v", c.n, pct, c.want)
		}
		beyond := 0
		for _, x := range xs {
			if x > v {
				beyond++
			}
		}
		if pct > 50 && beyond < minTail {
			t.Errorf("%d samples: p%v = %v has %d samples beyond it, want ≥ %d", c.n, pct, v, beyond, minTail)
		}
	}
	if v, pct := tail([]float64{5, 1, 4, 2, 3}); v != 3 || pct != 50 {
		t.Fatalf("tail of 5 samples = %v at p%v, want the median 3 at p50", v, pct)
	}
	if v, _ := tail(nil); v != 0 {
		t.Fatalf("tail of no samples = %v, want 0", v)
	}
}

func TestMedian(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want float64
	}{{[]float64{3, 1, 2}, 2}, {[]float64{4, 1, 3, 2}, 2.5}, {nil, 0}} {
		if got := median(c.xs); got != c.want {
			t.Errorf("median(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
}

func TestArrivalsAreAnOpenLoopSchedule(t *testing.T) {
	const rate, seconds = 25.0, 4.0
	plan := arrivals(7, rate, seconds)
	events := int(rate * seconds)
	bursts := events * burstPct / 100
	if len(plan) != events+bursts {
		t.Fatalf("%d requests, want %d events + %d duplicates", len(plan), events, bursts)
	}
	gap := time.Duration(float64(time.Second) / rate)
	event := 0
	classes := map[string]int{}
	for i, a := range plan {
		if i > 0 && a.due == plan[i-1].due {
			// A burst duplicate: same instant, same hot request.
			if a.spec.Class != "hot" || a.spec.shapeKey != plan[i-1].spec.shapeKey {
				t.Fatalf("request %d shares its due time with a different request", i)
			}
			continue
		}
		if want := time.Duration(event) * gap; a.due < want-time.Microsecond || a.due > want+time.Microsecond {
			t.Fatalf("event %d due at %v, want %v", event, a.due, want)
		}
		classes[a.spec.Class]++
		event++
	}
	want := map[string]int{"distinct": events * distinctPct / 100, "run": events * runPct / 100, "fleet": events * fleetPct / 100}
	want["hot"] = events - want["distinct"] - want["run"] - want["fleet"]
	if !reflect.DeepEqual(classes, want) {
		t.Fatalf("class counts %v, want %v", classes, want)
	}
}

func TestDistinctRequestsCycleBeyondThePlanCache(t *testing.T) {
	const planCache = 32 // serve.Config's default CacheSize
	last := map[string]int{}
	k := 0
	for _, a := range arrivals(3, 25, 60) {
		if a.spec.Class != "distinct" {
			continue
		}
		if prev, ok := last[a.spec.shapeKey]; ok && k-prev <= planCache {
			t.Fatalf("geometry repeats after %d distinct requests; the cache would still hold it", k-prev)
		}
		last[a.spec.shapeKey] = k
		k++
	}
	if len(last) != distinctShapes {
		t.Fatalf("%d geometries visited, want %d", len(last), distinctShapes)
	}
}

func TestSeedGivesIdenticalInputs(t *testing.T) {
	a, b := arrivals(11, 25, 10), arrivals(11, 25, 10)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("the same seed generated different arrivals")
	}
	if reflect.DeepEqual(a, arrivals(12, 25, 10)) {
		t.Fatal("different seeds generated identical arrivals")
	}
	if !reflect.DeepEqual(shapes(5), shapes(5)) {
		t.Fatal("the same seed generated different request shapes")
	}
}

func TestSelfTimeSubtractsChildCoverage(t *testing.T) {
	ms := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	spans := []span{
		{ID: 0, Name: "parent", Start: ms(0), End: ms(100), Parent: -1},
		{ID: 1, Name: "child", Start: ms(10), End: ms(30), Parent: 0},
		{ID: 2, Name: "child", Start: ms(20), End: ms(40), Parent: 0},  // overlaps span 1
		{ID: 3, Name: "child", Start: ms(90), End: ms(120), Parent: 0}, // runs past the parent
		{ID: 4, Name: "grandchild", Start: ms(12), End: ms(18), Parent: 1},
		{ID: 5, Name: "open", Start: ms(0), End: -1, Parent: -1},
	}
	got := map[string]layerTime{}
	for _, lt := range selfTimes(spans) {
		got[lt.Name] = lt
	}
	check := func(name string, count int, total, self float64) {
		t.Helper()
		lt := got[name]
		if lt.Count != count || !near(lt.Total, total) || !near(lt.Self, self) {
			t.Errorf("%s: count %d total %v self %v, want %d %v %v", name, lt.Count, lt.Total, lt.Self, count, total, self)
		}
	}
	// The parent's children cover 10–40 and 90–100: 40 ms of its 100.
	check("parent", 1, 0.100, 0.060)
	// Span 1 loses the grandchild's 6 ms; spans 2 and 3 have no children.
	check("child", 3, 0.070, 0.064)
	check("grandchild", 1, 0.006, 0.006)
	if _, ok := got["open"]; ok {
		t.Error("an unfinished span was counted")
	}
}

func near(a, b float64) bool { return a-b < 1e-9 && b-a < 1e-9 }

func TestTracerRecordsOnlyWhileOn(t *testing.T) {
	tr := newTracer()
	if id := tr.start("off", -1, ""); id != -1 {
		t.Fatalf("start while off returned %d, want -1", id)
	}
	tr.end(-1)
	tr.enable(true)
	p := tr.start("parent", -1, "job1")
	c := tr.start("child", p, "job1")
	tr.end(c)
	tr.end(p)
	spans := tr.snapshot()
	if len(spans) != 2 || spans[1].Parent != spans[0].ID || spans[0].Job != "job1" || spans[0].End < spans[1].End {
		t.Fatalf("spans %+v, want a parent enclosing one child of job1", spans)
	}
}

func TestFNVCountsIsFNV64aOfLittleEndianWords(t *testing.T) {
	counts := make([]uint64, 5000) // spans more than one internal buffer
	for i := range counts {
		counts[i] = uint64(i) * 0x9e3779b97f4a7c15
	}
	h := fnv.New64a()
	for _, c := range counts {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], c)
		h.Write(b[:])
	}
	if got, want := fnvCounts(counts), fmt.Sprintf("%016x", h.Sum64()); got != want {
		t.Fatalf("fnvCounts = %s, want %s", got, want)
	}
}

func TestRepeatedOutputMustNotChange(t *testing.T) {
	r := &result{}
	r.output("a", "1")
	r.output("a", "1")
	if r.wrong != 0 {
		t.Fatal("an identical repeat counted as wrong")
	}
	r.output("a", "2")
	if r.wrong != 1 {
		t.Fatal("a changed repeat was not counted as wrong")
	}
}

func TestMixSharesCountRepeatsCoalescingAndCacheHits(t *testing.T) {
	a, b := reqSpec{shapeKey: "a"}, reqSpec{shapeKey: "b"}
	hit, miss := &serve.JobResult{CacheHit: true}, &serve.JobResult{}
	recs := []sent{
		{spec: a, job: "1", state: "done", result: miss},
		{spec: a, job: "1", state: "done", result: miss}, // coalesced onto job 1
		{spec: a, job: "2", state: "done", result: hit},
		{spec: b, job: "3", state: "done", result: miss},
		{spec: b}, // shed: a repeat, but never accepted
	}
	m := measureMix(recs)
	want := mixShares{repeat: 3.0 / 5, coalesce: 1.0 / 4, cacheHit: 1.0 / 3, jobs: 3}
	if m != want {
		t.Fatalf("measureMix = %+v, want %+v", m, want)
	}
}

package main

import (
	"runtime"
	"runtime/metrics"
	"sync"
	"time"
)

// memStats is what the Go runtime reports over one timed phase.
type memStats struct {
	peakMB    float64 // highest heap-in-use sample
	allocMB   float64 // bytes allocated
	gcCycles  float64
	gcPauseMS float64
}

// heapWatch samples the live Go heap every few milliseconds from its own
// goroutine until stop, which returns once that goroutine has exited.
type heapWatch struct {
	stop  chan struct{}
	wg    sync.WaitGroup
	peak  uint64
	ms0   runtime.MemStats
	reads []metrics.Sample
}

// heapSampleEvery is the heap sampling period: short enough to catch the
// peak before a collection, long enough to cost nothing measurable.
const heapSampleEvery = 2 * time.Millisecond

// watchHeap collects garbage left by set-up, then starts sampling.
func watchHeap() *heapWatch {
	runtime.GC()
	h := &heapWatch{stop: make(chan struct{}), reads: []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}}
	runtime.ReadMemStats(&h.ms0)
	h.sample()
	h.wg.Add(1)
	go func() {
		defer h.wg.Done()
		t := time.NewTicker(heapSampleEvery)
		defer t.Stop()
		for {
			select {
			case <-h.stop:
				return
			case <-t.C:
				h.sample()
			}
		}
	}()
	return h
}

func (h *heapWatch) sample() {
	metrics.Read(h.reads)
	if v := h.reads[0].Value.Uint64(); v > h.peak {
		h.peak = v
	}
}

func (h *heapWatch) done() memStats {
	close(h.stop)
	h.wg.Wait()
	h.sample()
	var ms1 runtime.MemStats
	runtime.ReadMemStats(&ms1)
	const mb = 1 << 20
	return memStats{
		peakMB:    float64(h.peak) / mb,
		allocMB:   float64(ms1.TotalAlloc-h.ms0.TotalAlloc) / mb,
		gcCycles:  float64(ms1.NumGC - h.ms0.NumGC),
		gcPauseMS: float64(ms1.PauseTotalNs-h.ms0.PauseTotalNs) / 1e6,
	}
}

package pim_test

import (
	"testing"

	"pimendure/pim"
)

func cacheOptions() pim.Options {
	return pim.Options{Lanes: 16, Rows: 512, PresetOutputs: true, NANDBasis: true}
}

// The fingerprint is a pure function of the compiled trace content and
// geometry: recompiling the same benchmark matches, changing precision,
// lanes or rows does not.
func TestFingerprint(t *testing.T) {
	opt := cacheOptions()
	a, err := pim.NewParallelMult(opt, 8)
	if err != nil {
		t.Fatal(err)
	}
	b, err := pim.NewParallelMult(opt, 8)
	if err != nil {
		t.Fatal(err)
	}
	if pim.Fingerprint(a, opt) != pim.Fingerprint(b, opt) {
		t.Error("identical compilations fingerprint differently")
	}
	wider, err := pim.NewParallelMult(opt, 16)
	if err != nil {
		t.Fatal(err)
	}
	if pim.Fingerprint(a, opt) == pim.Fingerprint(wider, opt) {
		t.Error("different precisions share a fingerprint")
	}
	deeper := opt
	deeper.Rows = 1024
	if pim.Fingerprint(a, opt) == pim.Fingerprint(a, deeper) {
		t.Error("different row counts share a fingerprint")
	}
}

// A cached sweep must be bit-identical to a cold pim.Sweep: same
// distributions, same lifetimes, and the second (cache-hit) pass equals
// the first.
func TestPlanCacheSweepBitIdentical(t *testing.T) {
	opt := cacheOptions()
	bench, err := pim.NewParallelMult(opt, 8)
	if err != nil {
		t.Fatal(err)
	}
	rc := pim.RunConfig{Iterations: 300, RecompileEvery: 50, Seed: 7}
	cold, err := pim.Sweep(bench, opt, rc, nil, pim.MRAM())
	if err != nil {
		t.Fatal(err)
	}

	cache := pim.NewPlanCache(4)
	first, hit, err := cache.Sweep(bench, opt, rc, nil, pim.MRAM())
	if err != nil {
		t.Fatal(err)
	}
	if hit {
		t.Error("first cache.Sweep reported a hit on an empty cache")
	}
	// A recompiled benchmark (fresh trace pointer, same content) must
	// hit the cached plan.
	recompiled, err := pim.NewParallelMult(opt, 8)
	if err != nil {
		t.Fatal(err)
	}
	second, hit, err := cache.Sweep(recompiled, opt, rc, nil, pim.MRAM())
	if err != nil {
		t.Fatal(err)
	}
	if !hit {
		t.Error("identical benchmark missed the plan cache")
	}
	if cache.Len() != 1 {
		t.Errorf("cache holds %d plans, want 1", cache.Len())
	}
	for i := range cold {
		for _, got := range [][]*pim.Result{first, second} {
			if !got[i].Dist.Equal(cold[i].Dist) {
				t.Fatalf("%s: cached sweep distribution differs from cold Sweep", cold[i].Strategy.Name())
			}
			if got[i].MaxWritesPerIteration != cold[i].MaxWritesPerIteration ||
				got[i].Lifetime != cold[i].Lifetime {
				t.Fatalf("%s: cached sweep summary differs from cold Sweep", cold[i].Strategy.Name())
			}
		}
	}
}

// LRU semantics: capacity bounds the cache and the least recently used
// plan is the one evicted; a zero capacity disables caching.
func TestPlanCacheEviction(t *testing.T) {
	opt := cacheOptions()
	var benches []*pim.Benchmark
	for _, bits := range []int{4, 6, 8} {
		b, err := pim.NewParallelMult(opt, bits)
		if err != nil {
			t.Fatal(err)
		}
		benches = append(benches, b)
	}
	cache := pim.NewPlanCache(2)
	touch := func(b *pim.Benchmark) bool {
		_, hit := cache.Plan(b, opt)
		return hit
	}
	touch(benches[0])
	touch(benches[1])
	touch(benches[0]) // refresh 0: LRU order now 1, 0
	touch(benches[2]) // evicts 1
	if !touch(benches[0]) {
		t.Error("recently used plan was evicted")
	}
	if touch(benches[1]) {
		t.Error("least recently used plan survived past capacity")
	}
	if cache.Len() != 2 {
		t.Errorf("cache holds %d plans, want 2", cache.Len())
	}

	off := pim.NewPlanCache(0)
	if _, hit := off.Plan(benches[0], opt); hit {
		t.Error("zero-capacity cache reported a hit")
	}
	if _, hit := off.Plan(benches[0], opt); hit || off.Len() != 0 {
		t.Error("zero-capacity cache stored a plan")
	}
}

// The epoch walk: the one wear-accumulation engine.
//
// A simulation is a sum over recompile epochs. Each epoch adds the
// one-iteration write matrix permuted by that epoch's within-lane and
// between-lane maps (software, sw_engine.go), or a renamer-replayed
// histogram landed through the between-lane map (+Hw, hw_engine.go).
// uint64 additions commute, so the walk may accumulate the epochs of any
// contiguous range in any order and on any number of workers; only the
// range boundaries are observable. Every caller is one loop over ranges:
//
//   - WearPlan.Simulate advances over all epochs at once, or, with a
//     WearSampler attached, one inter-sample segment at a time,
//     materializing the distribution at each sample;
//   - Stepper.Step advances one epoch and never materializes; the walk's
//     live per-row maxima answer MaxWrites instead.
//
// Inside a range, epochs collapse into groups whose accumulations are
// identical (grouper), so St and Bs families cost one accumulation per
// distinct permutation rather than one per epoch:
//
//   - software epochs group by (within, between) permutation pair, each
//     group weighted by its members' summed iterations;
//   - +Hw epochs group into replay jobs by (within permutation, length),
//     planned over the whole run before the first range. A job is
//     replayed in the range that first needs it and keeps its histogram
//     exactly until its last member epoch has landed, so a sampled run
//     replays no more than a batch run. (The Stepper's open walk cannot
//     plan ahead; it keeps the last finished job's histogram instead.)
//     Within a range, a job's member epochs group again by between
//     permutation and land as one scaled addition per group.
//
// A range's groups are sharded over a pool of SimConfig.Workers
// goroutines; each worker accumulates into a private buffer merged by
// addition, so results are bit-identical for every worker count.
package core

import (
	"cmp"
	"slices"

	"pimendure/internal/mapping"
	"pimendure/internal/pool"
)

// grouper collects epochs into groups of equal value: a fingerprint key
// buckets candidates, and an exact comparison against each bucket
// member's representative epoch resolves fingerprint collisions. Groups
// are numbered in first-seen order.
type grouper[K comparable] struct {
	head   map[K]int32 // fingerprint -> first group of its bucket
	groups []group
}

// group is one grouper entry.
type group struct {
	rep    int    // representative epoch
	weight uint64 // summed member weight
	next   int32  // next group in the same fingerprint bucket (-1 ends)
}

// reset empties the grouper, keeping its storage and sizing it for about
// n epochs.
func (g *grouper[K]) reset(n int) {
	if g.head == nil {
		g.head = make(map[K]int32, n)
	} else {
		clear(g.head)
	}
	g.groups = slices.Grow(g.groups[:0], n)
}

// add files epoch, whose fingerprint is key, under the group whose
// representative it equals — same reports that equality — or under a
// new group, and adds weight to the group. It returns the group.
func (g *grouper[K]) add(key K, epoch int, weight uint64, same func(rep int) bool) int32 {
	id := int32(len(g.groups))
	if cand, ok := g.head[key]; !ok {
		g.head[key] = id
	} else {
		for {
			c := &g.groups[cand]
			if same(c.rep) {
				c.weight += weight
				return cand
			}
			if c.next < 0 {
				c.next = id
				break
			}
			cand = c.next
		}
	}
	g.groups = append(g.groups, group{rep: epoch, weight: weight, next: -1})
	return id
}

// hwKey buckets +Hw epochs into replay jobs.
type hwKey struct {
	within uint64 // within-permutation fingerprint
	n      int    // epoch length in iterations
}

// swKey buckets software epochs by permutation pair.
type swKey struct{ within, between uint64 }

// walk is one simulation's pending state: the planned epochs, the counts
// accumulated so far, the pending full-mask row weights (rowW of worker
// 0's scratch, see accumulateSwJob) and the +Hw histograms still waiting
// on later member epochs. Build one with newWalk, advance it over
// contiguous ranges of planned epochs, and finish it to return its
// scratch.
type walk struct {
	p       *WearPlan
	hw      bool
	dist    *WriteDist
	workers int
	// open marks a walk that plans each epoch as it arrives (the
	// Stepper's): it keeps live per-row maxima, and because it cannot see
	// future epochs the last finished +Hw job keeps its histogram — a
	// one-entry memo — instead of freeing it.
	open   bool
	curMax uint64 // open walks: hottest cell, pending row weights included

	task func(slot, i int) // swTask or hwTask, bound once per walk

	scr   []*engineScratch  // per-worker scratch; scr[0] also serves the walk itself
	parts [][]uint64        // per-worker partial counts; parts[0] is dist.Counts
	scr0  [1]*engineScratch // backs scr while the walk is serial, saving an allocation
	part0 [1][]uint64       // backs parts likewise

	spare int32 // open walks: finished job still holding its histogram (-1 none)

	*walkBufs // worker 0's, so warm runs reuse their capacity
}

// walkBufs is a walk's growable storage. It lives in an engineScratch
// bundle, so the plan's arena recycles it across walks.
type walkBufs struct {
	lens []int // planned epoch lengths in iterations

	// +Hw replay jobs, planned with the epochs. A job's byWithin weight
	// counts its member epochs not yet landed; hists holds its histogram
	// from replay until the last member lands.
	byWithin grouper[hwKey]
	jobOf    []int32
	hists    [][]uint64

	// Per-range scratch.
	bySw  grouper[swKey]
	flat  []int
	tasks [][]int
}

// newWalk starts a walk of one configuration that accumulates into dist.
// A closed walk plans cfg's whole run up front; an open walk (the
// Stepper's) plans each epoch as it arrives.
func (p *WearPlan) newWalk(cfg SimConfig, strat StrategyConfig, dist *WriteDist, open bool) *walk {
	arch := cfg.Rows
	if strat.Hw {
		arch--
	}
	sched := mapping.Schedule{
		Rows: arch, Lanes: p.trace.Lanes,
		Within: strat.Within, Between: strat.Between,
		Seed: cfg.Seed, ShiftStep: cfg.ShiftStep,
	}
	w := &walk{p: p, hw: strat.Hw, dist: dist, workers: cfg.workers(), open: open, spare: -1}
	if w.hw {
		w.task = w.hwTask
	} else {
		w.task = w.swTask
	}
	w.scr0[0], w.part0[0] = p.getScratch(), dist.Counts
	w.scr, w.parts = w.scr0[:], w.part0[:]
	w.walkBufs = &w.scr[0].bufs
	w.scr[0].gen.reset(sched)
	p.ensureRowW(w.scr[0])
	if open {
		p.ensureRowMax(w.scr[0])
	}
	epochs := 0
	every := cfg.recompileEvery()
	if !open {
		epochs = (cfg.Iterations + every - 1) / every
	}
	w.lens = slices.Grow(w.lens[:0], epochs)
	if w.hw {
		p.ensureHw(w.scr[0])
		w.byWithin.reset(epochs)
		w.jobOf = slices.Grow(w.jobOf[:0], epochs)
		w.hists = slices.Grow(w.hists[:0], epochs)
		obsHwCycleLen.Add(int64(p.cycle.Period))
	}
	for e := 0; e < epochs; e++ {
		w.plan(min(every, cfg.Iterations-e*every))
	}
	return w
}

// plan appends the next epoch, n iterations long, and returns its index.
// A +Hw epoch joins the replay job of every earlier epoch with the same
// within permutation and length.
func (w *walk) plan(n int) int {
	e := len(w.lens)
	w.lens = append(w.lens, n)
	if w.hw {
		gen := &w.scr[0].gen
		within := gen.withinAt(e)
		j := w.byWithin.add(hwKey{within.Fingerprint(), n}, e, 1, func(rep int) bool {
			return gen.within2At(rep).Equal(within)
		})
		if int(j) == len(w.hists) {
			w.hists = append(w.hists, nil)
		}
		w.jobOf = append(w.jobOf, j)
	}
	return e
}

// advance accumulates the planned epochs first..last into the counts.
// The full-mask part of software epochs stays pending in the row weights
// until materialize.
func (w *walk) advance(first, last int) {
	obsEpochs.Add(int64(last - first + 1))
	if w.hw {
		w.run(w.groupHw(first, last))
	} else {
		w.run(w.groupSw(first, last))
	}
	if w.open {
		w.refresh()
	}
}

// groupSw groups the range's software epochs by permutation pair, each
// group weighted by its members' summed iterations, and returns the
// group count.
func (w *walk) groupSw(first, last int) int {
	gen := &w.scr[0].gen
	g := &w.bySw
	g.reset(last - first + 1)
	for e := first; e <= last; e++ {
		within, between := gen.withinAt(e), gen.betweenAt(e)
		g.add(swKey{within.Fingerprint(), between.Fingerprint()}, e, uint64(w.lens[e]), func(rep int) bool {
			return gen.within2At(rep).Equal(within) && gen.between2At(rep).Equal(between)
		})
	}
	groups := len(g.groups)
	obsSwGroups.Add(int64(groups))
	obsSwMemoHits.Add(int64(last - first + 1 - groups))
	return groups
}

// swTask accumulates software group i once, on worker slot.
func (w *walk) swTask(slot, i int) {
	p, s, g := w.p, w.scr[slot], w.bySw.groups[i]
	accumulateSwJob(p, &s.gen, g.rep, g.weight, s.rowW, w.parts[slot])
	if w.open {
		within := s.gen.withinAt(g.rep)
		for _, r := range p.csrRows {
			s.touched = append(s.touched, int32(within.Apply(int(r))))
		}
	}
}

// groupHw buckets the range's +Hw epochs by replay job into w.tasks and
// returns the task count.
func (w *walk) groupHw(first, last int) int {
	// A stable sort keeps each job's members in epoch order.
	ep := slices.Grow(w.flat[:0], last-first+1)
	for e := first; e <= last; e++ {
		ep = append(ep, e)
	}
	slices.SortStableFunc(ep, func(a, b int) int { return cmp.Compare(w.jobOf[a], w.jobOf[b]) })
	tasks := slices.Grow(w.tasks[:0], len(ep))
	for lo := 0; lo < len(ep); {
		hi := lo + 1
		for hi < len(ep) && w.jobOf[ep[hi]] == w.jobOf[ep[lo]] {
			hi++
		}
		tasks = append(tasks, ep[lo:hi])
		lo = hi
	}
	w.flat, w.tasks = ep, tasks

	// Replay accounting: each job costs one recorded iteration; every
	// other epoch-iteration of the range is saved.
	var replays, iters int64
	for _, t := range tasks {
		if w.hists[w.jobOf[t[0]]] == nil {
			replays++
		}
		iters += int64(len(t) * w.lens[t[0]])
	}
	obsHwReplays.Add(replays)
	obsHwMemoHits.Add(int64(len(ep)) - replays)
	obsHwReplayIters.Add(replays)
	obsHwReplayItersSaved.Add(iters - replays)
	return len(tasks)
}

// hwTask replays task i's job if it has no histogram yet, then lands the
// task's member epochs through their between-lane permutations — one
// scaled addition per distinct permutation — on worker slot.
func (w *walk) hwTask(slot, i int) {
	p, s := w.p, w.scr[slot]
	rows, lanes := p.rows, p.trace.Lanes
	epochs := w.tasks[i]
	j := w.jobOf[epochs[0]]
	hist := w.hists[j]
	if hist == nil {
		hist = p.getHist()
		replayJobHist(p.ops, &s.gen, w.byWithin.groups[j].rep, w.lens[epochs[0]], p.cycle.Period, rows, s.arch, s.hw, s.cyc, hist)
		w.hists[j] = hist
	}
	if len(epochs) == 1 {
		addHist(hist, p.maskLanes, rows, lanes, s.gen.betweenAt(epochs[0]), 1, w.parts[slot])
	} else {
		g := &s.byBetween
		g.reset(len(epochs))
		for _, e := range epochs {
			between := s.gen.betweenAt(e)
			g.add(between.Fingerprint(), e, 1, func(rep int) bool {
				return s.gen.between2At(rep).Equal(between)
			})
		}
		for _, b := range g.groups {
			addHist(hist, p.maskLanes, rows, lanes, s.gen.betweenAt(b.rep), b.weight, w.parts[slot])
		}
	}
	if w.open {
		for r := 0; r < rows; r++ {
			for m := range p.maskLanes {
				if hist[m*rows+r] != 0 {
					s.touched = append(s.touched, int32(r))
					break
				}
			}
		}
	}
	job := &w.byWithin.groups[j]
	if job.weight -= uint64(len(epochs)); job.weight == 0 {
		w.retire(j)
	}
}

// retire frees the histogram of a job whose last planned member has
// landed. An open walk keeps the most recently finished job's histogram
// instead, freeing the one it kept before: the next epoch reuses it if
// it joins the same job.
func (w *walk) retire(j int32) {
	if w.open {
		if j, w.spare = w.spare, j; j < 0 || j == w.spare {
			return
		}
	}
	w.p.putHist(w.hists[j])
	w.hists[j] = nil
}

// run shards the range's n tasks (w.task) over the pool. Each worker
// accumulates into its own counts and row weights; the extra workers'
// buffers merge into worker 0's — the walk's own — before run returns.
func (w *walk) run(n int) {
	p := w.p
	workers := pool.Size(w.workers, n)
	for len(w.scr) < workers {
		s := p.getScratch()
		s.gen.reset(w.scr[0].gen.sched)
		p.ensureRowW(s)
		if w.hw {
			p.ensureHw(s)
		}
		w.scr = append(w.scr, s)
		w.parts = append(w.parts, p.getCounts())
	}
	pool.ForEachWorker(workers, n, w.task)
	counts, rowW := w.parts[0], w.scr[0].rowW
	for k := 1; k < workers; k++ {
		part, partW := w.parts[k], w.scr[k].rowW
		for i, c := range part {
			if c != 0 {
				counts[i] += c
				part[i] = 0
			}
		}
		for pr, c := range partW {
			rowW[pr] += c
			partW[pr] = 0
		}
	}
}

// refresh updates an open walk's live maximum: rows whose cells changed
// are rescanned, and every row's pending weight — uniform across the row
// — adds on top of its materialized maximum.
func (w *walk) refresh() {
	s := w.scr[0]
	lanes := w.p.trace.Lanes
	for _, pr := range s.touched {
		s.rowMax[pr] = slices.Max(w.dist.Counts[int(pr)*lanes : int(pr+1)*lanes])
	}
	s.touched = s.touched[:0]
	for pr, m := range s.rowMax {
		if c := m + s.rowW[pr]; c > w.curMax {
			w.curMax = c
		}
	}
}

// materialize adds each pending full-mask row weight to every lane of
// its row, leaving the counts a true prefix distribution.
func (w *walk) materialize() {
	rowW, lanes := w.scr[0].rowW, w.p.trace.Lanes
	for pr, c := range rowW {
		if c == 0 {
			continue
		}
		row := w.dist.Counts[pr*lanes : (pr+1)*lanes]
		for l := range row {
			row[l] += c
		}
		rowW[pr] = 0
	}
}

// finish returns the walk's scratch, worker buffers and any histograms it
// still holds to the plan's arena.
func (w *walk) finish() {
	p := w.p
	for _, h := range w.hists {
		if h != nil {
			p.putHist(h)
		}
	}
	clear(w.hists)
	for k, s := range w.scr {
		if k > 0 {
			p.putCounts(w.parts[k])
		}
		p.putScratch(s)
	}
	w.scr, w.parts, w.walkBufs = nil, nil, nil
}

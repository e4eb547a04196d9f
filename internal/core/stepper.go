// The incremental, epoch-granular view of the wear engine.
//
// Simulate needs the whole iteration count up front; a scheduler that
// routes work by *live* wear (internal/system's wear-aware bank policy)
// needs the opposite — accumulate one recompile epoch at a time and ask
// "how hot is the hottest cell right now?" between epochs. Stepper is
// that view: an open epoch walk (walk.go) over a shared WearPlan, in
// which each Step plans and advances exactly one epoch. A stepped run is
// therefore bit-identical to Simulate (and SimulateReference) over the
// same epoch sequence.
//
// The walk never materializes before Finish: the full-mask part of
// software epochs stays pending as per-row weights. MaxWrites is still
// O(1), because an open walk keeps a per-physical-row maximum of the
// materialized cells as it accumulates. Cell counts only grow and the
// pending weight adds uniformly across a row, so the hottest cell is
// max over rows of (row maximum + pending row weight).
package core

import (
	"fmt"

	"pimendure/internal/obs"
)

// Stepper accumulates a wear simulation one recompile epoch at a time
// over a shared WearPlan, exposing the live hottest-cell count between
// epochs. Create one with WearPlan.NewStepper, advance it with Step —
// epoch e of the equivalent batch run is the (e+1)-th Step call — and
// close it with Finish. A Stepper is serial and not safe for concurrent
// use; run independent Steppers (one per bank) concurrently instead —
// the plan itself is immutable and shared.
type Stepper struct {
	walk  *walk
	iters int // iterations accumulated so far
}

// NewStepper prepares an incremental simulation of one load-balancing
// configuration against the plan. Only cfg's Rows, PresetOutputs, Seed
// and ShiftStep are consulted: the iteration count is whatever the Step
// calls add up to, and Workers/Sampler/Iterations are ignored (the
// stepper is serial; sample by reading MaxWrites between steps).
func (p *WearPlan) NewStepper(cfg SimConfig, strat StrategyConfig) (*Stepper, error) {
	probe := cfg
	probe.Iterations = 1 // Validate demands a positive count; steps supply the real one
	if err := probe.Validate(p.trace, strat.Hw); err != nil {
		return nil, err
	}
	if err := p.check(p.trace, probe); err != nil {
		return nil, err
	}
	probe.Workers = 1
	dist := p.newDist()
	dist.StepsPerIteration = p.stats.Steps
	return &Stepper{walk: p.newWalk(probe, strat, dist, true)}, nil
}

// Iterations returns the iterations accumulated so far.
func (s *Stepper) Iterations() int { return s.iters }

// MaxWrites returns the hottest cell's accumulated write count — Eq. 4's
// max(WriteCount) over the iterations stepped so far. O(1): the maximum
// is maintained during accumulation.
func (s *Stepper) MaxWrites() uint64 { return s.walk.curMax }

// Step accumulates the next recompile epoch with the given iteration
// count (an equivalent batch run's epoch lengths: RecompileEvery per
// epoch, short final epoch allowed). Calls with iters ≤ 0 are no-ops
// that do not advance the epoch index.
func (s *Stepper) Step(iters int) {
	if iters <= 0 {
		return
	}
	e := s.walk.plan(iters)
	s.walk.advance(e, e)
	s.iters += iters
}

// Finish completes the accumulation (expanding the pending full-mask row
// weights), returns the stepper's working scratch to the plan's arena,
// and returns the distribution — cell-for-cell identical to Simulate
// over the same epoch sequence. The stepper must not be stepped again
// after Finish.
func (s *Stepper) Finish() (*WriteDist, error) {
	if s.iters <= 0 {
		return nil, fmt.Errorf("core: stepper finished with no iterations stepped")
	}
	w := s.walk
	if w.scr != nil { // not finished yet
		w.materialize()
		w.finish()
	}
	w.dist.Iterations = s.iters
	if obs.Enabled() {
		obsWrites.Add(int64(w.dist.Total()))
	}
	return w.dist, nil
}

// Discard closes a stepper without finishing it — for a caller that
// only read MaxWrites — returning its scratch and counts buffer to the
// plan's arena. It is a no-op after Finish, and the stepper must not be
// used again.
func (s *Stepper) Discard() {
	if w := s.walk; w.scr != nil {
		w.finish()
		w.dist.Release()
	}
}

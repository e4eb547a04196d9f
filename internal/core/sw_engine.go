// The software wear primitive.
//
// Without hardware renaming, an epoch of n iterations contributes
// n · P_w M0 P_b to the distribution: the one-iteration write matrix M0
// permuted by the epoch's within-lane (rows) and between-lane (columns)
// maps. The contribution is linear in n and depends on the epoch only
// through its permutation pair, so the epoch walk (walk.go) groups a
// range's epochs by that pair and accumulates each group once with its
// members' summed iterations. St×St collapses to a single accumulation
// for the whole run; Bs families collapse to their rotation period
// (rows/gcd(step·8, rows) distinct shifts per axis); only Ra epochs stay
// unique. core.sw.groups counts surviving groups and core.sw.memo_hits
// the epochs folded into an existing group.
//
// A full lane mask is invariant under every between-lane permutation, so
// the full-mask part of M0 (one weight per logical row of the plan)
// contributes weight·iters to every lane of one physical row. A group
// adds those as a per-physical-row weight — O(full rows), no lane
// dimension at all — which the walk expands to whole rows only when it
// materializes the distribution. Only the CSR-packed partial-mask
// remainder pays a per-lane walk per group.
package core

import "pimendure/internal/obs"

// Software-engine memoization accounting (no-ops until obs.Enable).
var (
	// obsSwGroups counts unique (within, between) permutation-pair groups
	// the software engine actually accumulated.
	obsSwGroups = obs.GetCounter("core.sw.groups")
	// obsSwMemoHits counts software epochs folded into an already-seen
	// permutation-pair group; groups + memo_hits equals the software
	// epochs simulated.
	obsSwMemoHits = obs.GetCounter("core.sw.memo_hits")
)

// accumulateSwJob adds one group's contribution — the epochs sharing
// epoch0's permutation pair, iters iterations in total: the full-mask row
// weights into rowW (between-invariant, expanded to whole rows when the
// walk materializes) and the CSR partial-mask entries straight into
// counts through the group's between permutation.
func accumulateSwJob(p *WearPlan, gen *permGen, epoch0 int, iters uint64, rowW, counts []uint64) {
	within := gen.withinAt(epoch0)
	between := gen.betweenAt(epoch0)
	for i, r := range p.fullRowIdx {
		rowW[within.Apply(int(r))] += uint64(p.fullRowW[i]) * iters
	}
	lanes := p.trace.Lanes
	for i, r := range p.csrRows {
		dst := counts[within.Apply(int(r))*lanes:]
		for e := p.csrPtr[i]; e < p.csrPtr[i+1]; e++ {
			dst[between.Apply(int(p.csrLane[e]))] += uint64(p.csrCnt[e]) * iters
		}
	}
}

package stats

import (
	"math"
)

// Helpers that only this package's tests use.

// Median returns exp(Mu).
func (l Lognormal) Median() float64 { return math.Exp(l.Mu) }

// MinCDF returns P(min of n iid copies ≤ x) = 1 − (1 − F(x))ⁿ, through
// the survival function so the deep tail stays exact.
func (l Lognormal) MinCDF(x, n float64) float64 {
	sf := l.SF(x)
	if sf == 0 {
		return 1
	}
	// 1 − sfⁿ = −expm1(n·ln(sf))
	return -math.Expm1(n * math.Log(sf))
}

// QuantileMin returns the p-quantile of the MINIMUM of n independent
// copies of X: with F_min(x) = 1 − (1 − F(x))ⁿ, the inverse is
// F⁻¹(1 − (1 − p)^{1/n}). This is the order-statistic collapse behind
// the fleet engine — sampling the weakest of n identically-worn cells
// in O(1) instead of n draws. Computed through expm1/log1p so p values
// down to the subnormal range map to accurate deep-tail quantiles.
// n need not be integral (it is a float for callers that merge groups).
func (l Lognormal) QuantileMin(p, n float64) float64 {
	if l.Sigma == 0 {
		return math.Exp(l.Mu)
	}
	// pc = 1 − (1−p)^{1/n}, kept accurate for tiny p and huge n where
	// the naive form rounds to 0.
	pc := -math.Expm1(math.Log1p(-p) / n)
	return math.Exp(l.Mu + l.Sigma*NormQuantile(pc))
}

// Transpose returns the grid with axes swapped (for row-parallel
// presentation).
func (g *Grid) Transpose() *Grid {
	out := NewGrid(g.Cols, g.Rows)
	for r := 0; r < g.Rows; r++ {
		for c := 0; c < g.Cols; c++ {
			out.Set(c, r, g.At(r, c))
		}
	}
	return out
}

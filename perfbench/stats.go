package main

import (
	"math"
	"sort"
)

// minTail is how many samples must lie beyond a reported tail percentile.
const minTail = 10

// tailLadder are the percentiles a tail is reported at, highest first.
var tailLadder = []float64{99.9, 99, 95, 90, 75}

// median returns the middle of xs (the mean of the two middle values for
// an even count); 0 for no samples.
func median(xs []float64) float64 {
	v, _ := quantile(xs, 50)
	return v
}

// tail returns the highest percentile of tailLadder that has at least
// minTail of the samples beyond it, and which percentile that is. With
// too few samples for any of them it reports the median and 50.
func tail(xs []float64) (value, pct float64) {
	for _, p := range tailLadder {
		if (100-p)*float64(len(xs))/100 >= minTail-1e-9 {
			return quantile(xs, p)
		}
	}
	return quantile(xs, 50)
}

// quantile is the p-th percentile of xs, interpolated linearly between
// order statistics; 0 for no samples.
func quantile(xs []float64, p float64) (float64, float64) {
	if len(xs) == 0 {
		return 0, p
	}
	s := sorted(xs)
	h := p / 100 * float64(len(s)-1)
	i := int(h)
	if i+1 >= len(s) {
		return s[len(s)-1], p
	}
	return s[i] + (h-float64(i))*(s[i+1]-s[i]), p
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

// ratio is a/b, or 0 when b is 0 (a layer the workload does not use).
func ratio(a, b float64) float64 {
	if b == 0 || math.IsNaN(a/b) {
		return 0
	}
	return a / b
}

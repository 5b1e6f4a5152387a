package main

import (
	"math"
	"sort"
)

// quantile returns the q-quantile of xs by linear interpolation between
// the two nearest ranks (the R-7 definition). It returns 0 for no data.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// tailQuantile is the highest of p99 and p50 that leaves at least ten
// samples beyond it: p99 from 1000 samples on, else the median.
func tailQuantile(xs []float64) float64 {
	if len(xs) >= 1000 {
		return quantile(xs, 0.99)
	}
	return median(xs)
}

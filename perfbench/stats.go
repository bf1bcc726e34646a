package main

import (
	"math"
	"sort"
	"time"
)

// ms converts a duration to fractional milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// median returns the middle value of xs (the mean of the two middle
// values for an even count), or NaN when xs is empty.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quantile returns the q-quantile of xs by linear interpolation
// between closest ranks, or NaN when xs is empty.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// tailLadder is the set of percentiles a tail latency may be reported
// at, highest first.
var tailLadder = []float64{99.9, 99, 95, 90, 75, 50}

// tail returns the highest ladder percentile that has at least 10
// samples beyond it, with its value. ok is false when there are fewer
// than 11 samples.
func tail(xs []float64) (pct, value float64, ok bool) {
	for _, p := range tailLadder {
		if float64(len(xs))*(1-p/100) >= 10 {
			return p, quantile(xs, p/100), true
		}
	}
	return 0, 0, false
}

// frac returns a/b, or 0 when b is 0.
func frac(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

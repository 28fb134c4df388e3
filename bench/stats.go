package main

import (
	"math"
	"sort"
	"time"
)

// percentile returns the p-th percentile (0..100) of sorted by the
// nearest-rank rule: the smallest sample with at least p% of the samples at
// or below it. Nearest rank never interpolates, so a reported latency is
// always one that was measured.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

func sortedCopy(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}

func median(xs []float64) float64 {
	s := sortedCopy(xs)
	n := len(s)
	if n == 0 {
		return math.NaN()
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartile exactly as Python's
// statistics.quantiles(xs, n=4) does (the "exclusive" method), because that
// is the rule the driver judges this benchmark's spread by.
func quartiles(xs []float64) (q1, q3 float64) {
	s := sortedCopy(xs)
	n := len(s)
	if n < 2 {
		return math.NaN(), math.NaN()
	}
	cut := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return cut(1), cut(3)
}

// ms and us convert durations to the benchmark's reporting units.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// dueTime is the open-loop schedule: request k of a stream that started at
// start and runs at rate per second is due at start + k/rate, whatever
// happened to the requests before it.
func dueTime(start time.Time, k int, rate float64) time.Time {
	return start.Add(time.Duration(float64(k) / rate * float64(time.Second)))
}

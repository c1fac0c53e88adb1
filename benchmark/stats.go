package main

import (
	"math"
	"sort"
)

// sorted returns an ascending copy of xs.
func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// percentile returns the p-th percentile (0 ≤ p ≤ 100) of xs, interpolating
// linearly between the two nearest order statistics (rank p/100·(n−1), what
// numpy and spreadsheets do). Interpolating keeps a tail percentile of a
// dozen repetitions from being simply the slowest one. It is 0 for an empty
// slice.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	rank := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(rank))
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	frac := rank - float64(lo)
	return s[lo]*(1-frac) + s[lo+1]*frac
}

// median is the 50th percentile.
func median(xs []float64) float64 { return percentile(xs, 50) }

// tailPercentiles are the candidates for the highest percentile a timing is
// reported at, each with the share of samples beyond it.
var tailPercentiles = []struct{ p, beyond float64 }{{99.9, 0.001}, {99, 0.01}, {95, 0.05}, {90, 0.1}, {75, 0.25}}

// tailPercentile returns the highest percentile that still has ten samples
// beyond it, or 50 when the sample is too small for any.
func tailPercentile(n int) float64 {
	for _, c := range tailPercentiles {
		if float64(n)*c.beyond >= 10-1e-9 {
			return c.p
		}
	}
	return 50
}

// quartiles returns the first and third quartile of xs as Python's
// statistics.quantiles(xs, n=4) computes them (the exclusive method), which
// is what the acceptance rule for this benchmark is stated in. It needs two
// samples.
func quartiles(xs []float64) (q1, q3 float64) {
	s := sorted(xs)
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
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(3)
}

// spread is the distance between the quartiles as a share of the median: the
// run-to-run noise a bound is compared with. It is 0 for fewer than two
// samples, where no spread can be seen.
func spread(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	q1, q3 := quartiles(xs)
	m := median(xs)
	if m == 0 {
		return 0
	}
	return math.Abs((q3 - q1) / m)
}

// timing summarises one set of latency samples the way every timing in the
// report is printed: sample count, median, and the tail percentile the count
// supports.
type timing struct {
	N      int     `json:"n"`
	Median float64 `json:"median"`
	TailP  float64 `json:"tail_percentile"`
	Tail   float64 `json:"tail"`
	Unit   string  `json:"unit"`
}

func summarise(xs []float64, unit string) timing {
	p := tailPercentile(len(xs))
	return timing{N: len(xs), Median: median(xs), TailP: p, Tail: percentile(xs, p), Unit: unit}
}

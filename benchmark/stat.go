package main

import (
	"math"
	"sort"

	"optimus/internal/stats"
)

// quantileSorted returns the q-quantile of an ascending slice by linear
// interpolation between order statistics (0 for an empty slice).
func quantileSorted(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	pos := q * float64(len(xs)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return xs[lo] + (pos-float64(lo))*(xs[hi]-xs[lo])
}

func sortedCopy(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}

func median(xs []float64) float64 { return quantileSorted(sortedCopy(xs), 0.5) }

func maxOf(xs []float64) float64 {
	m := 0.0
	for i, x := range xs {
		if i == 0 || x > m {
			m = x
		}
	}
	return m
}

func minOf(xs []float64) float64 {
	m := 0.0
	for i, x := range xs {
		if i == 0 || x < m {
			m = x
		}
	}
	return m
}

// quartiles returns the first and third quartile as Python's
// statistics.quantiles(xs, n=4) computes them (the "exclusive" method) — the
// rule the acceptance procedure uses for run-to-run spread. Fewer than two
// values have no spread: both quartiles equal the value.
func quartiles(xs []float64) (q1, q3 float64) {
	s := sortedCopy(xs)
	n := len(s)
	switch n {
	case 0:
		return 0, 0
	case 1:
		return s[0], s[0]
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

// summary is one metric's record in the result file: the reported value with
// the quartiles and Welford moments of the samples (passes, windows or
// repetitions) it was taken from.
type summary struct {
	Value  float64 `json:"value"`
	Unit   string  `json:"unit"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	N      int     `json:"n"`
	Mean   float64 `json:"mean"`
	StdDev float64 `json:"stddev"`
	Det    bool    `json:"det,omitempty"`
}

func summarize(value float64, xs []float64, def metricDef) summary {
	q1, q3 := quartiles(xs)
	w := stats.Summarize(xs)
	return summary{Value: value, Unit: def.Unit, Q1: q1, Q3: q3, N: len(xs),
		Mean: w.Mean, StdDev: w.StdDev, Det: def.Det}
}

// spread is the metric's relative run-to-run spread: the inter-quartile
// distance over the median when there are enough samples for quartiles,
// otherwise the inter-quartile distance a normal sample of the recorded
// standard deviation would have.
func (s summary) spread() float64 {
	if s.Value == 0 {
		return 0
	}
	iqr := s.Q3 - s.Q1
	if s.N < 4 {
		iqr = 1.349 * s.StdDev
	}
	return math.Abs(iqr / s.Value)
}

package main

import (
	"math"
	"sort"
)

// summary is the distribution of one metric's samples in one workload.
// The quartiles follow Python's statistics.quantiles(xs, n=4) (the
// "exclusive" method), so spreads computed here and by any Python
// tooling over the same samples agree.
type summary struct {
	Unit    string    `json:"unit"`
	Samples []float64 `json:"samples"`
	Median  float64   `json:"median"`
	Q1      float64   `json:"q1"`
	Q3      float64   `json:"q3"`
	N       int       `json:"n"`
}

func summarize(unit string, xs []float64) summary {
	q1, q3 := quartiles(xs)
	return summary{Unit: unit, Samples: xs, Median: median(xs), Q1: q1, Q3: q3, N: len(xs)}
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartile by the exclusive
// method: positions i(n+1)/4 interpolated between neighbours and
// clamped to the sample range. A single sample is its own quartiles.
func quartiles(xs []float64) (q1, q3 float64) {
	s := sorted(xs)
	n := len(s)
	switch n {
	case 0:
		return 0, 0
	case 1:
		return s[0], s[0]
	}
	q := func(i int) float64 {
		m := i * (n + 1)
		j := m / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return q(1), q(3)
}

// percentile is the nearest-rank p-th percentile (0 < p <= 100), the
// form used for latency tails.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	return s[rank-1]
}

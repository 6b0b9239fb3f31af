package main

import (
	"math"
	"sort"
	"time"
)

// percentile returns the nearest-rank p-quantile (0 < p <= 1) of xs.
// A failed operation is recorded as +Inf, so it lands above every
// success and counts as missing any latency limit; a percentile that
// reaches a failure is +Inf.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	xs = append([]float64(nil), xs...)
	sort.Float64s(xs)
	k := int(math.Ceil(p*float64(len(xs)))) - 1
	if k < 0 {
		k = 0
	}
	if k >= len(xs) {
		k = len(xs) - 1
	}
	return xs[k]
}

// dueLatenciesMs converts each operation's completion time, measured
// from the moment it was due, to milliseconds; failed operations
// become +Inf (see percentile).
func dueLatenciesMs(due, done []time.Time, ok []bool) []float64 {
	out := make([]float64, len(due))
	for i := range due {
		if !ok[i] {
			out[i] = math.Inf(1)
			continue
		}
		out[i] = float64(done[i].Sub(due[i])) / float64(time.Millisecond)
	}
	return out
}

// quartiles returns the first quartile, median and third quartile of
// xs exactly as Python's statistics.quantiles(xs, n=4) (the default
// "exclusive" method) computes them, and the median as
// statistics.median does. xs is not modified.
func quartiles(xs []float64) (q1, med, q3 float64) {
	d := append([]float64(nil), xs...)
	sort.Float64s(d)
	switch len(d) {
	case 0:
		return math.NaN(), math.NaN(), math.NaN()
	case 1:
		return d[0], d[0], d[0]
	}
	ld, n := len(d), 4
	m := ld + 1
	q := make([]float64, 3)
	for i := 1; i < n; i++ {
		j := i * m / n
		if j < 1 {
			j = 1
		}
		if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*n
		q[i-1] = (d[j-1]*float64(n-delta) + d[j]*float64(delta)) / float64(n)
	}
	if ld%2 == 1 {
		med = d[ld/2]
	} else {
		med = (d[ld/2-1] + d[ld/2]) / 2
	}
	return q[0], med, q[2]
}

// fastFigure is what a run reports for a time metric it measured per
// window: the upper quartile of per-window rates (higher is better),
// or the lower quartile of per-window times. A window in which the
// shared host took CPU time away reads slow, and such spells often
// last seconds; up to three quarters of the windows can be slowed
// without moving this figure, where a median stands only half.
func fastFigure(xs []float64, higherIsBetter bool) float64 {
	q1, _, q3 := quartiles(xs)
	if higherIsBetter {
		return q3
	}
	return q1
}

// median is the statistics.median of xs.
func median(xs []float64) float64 {
	_, m, _ := quartiles(xs)
	return m
}

// mean is the arithmetic mean of xs (0 for none).
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

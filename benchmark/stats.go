package main

import (
	"hash/fnv"
	"math"
	"sort"
)

// percentile returns the nearest-rank q-quantile (0 < q < 1) of sorted.
func percentile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	return sorted[i]
}

// tailLadder are the tail percentiles a latency report may use.
var tailLadder = []float64{0.5, 0.9, 0.99, 0.999, 0.9999}

// tailPercentile is the highest percentile of the ladder that has at
// least ten of n samples beyond its nearest-rank position, or 0 when not
// even the median has.
func tailPercentile(n int) float64 {
	best := 0.0
	for _, q := range tailLadder {
		if n-int(math.Ceil(q*float64(n))) >= 10 {
			best = q
		}
	}
	return best
}

func sorted(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

func median(v []float64) float64 {
	s := sorted(v)
	if len(s) == 0 {
		return 0
	}
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// quartiles returns Q1, Q2, Q3 by the exclusive method, as Python's
// statistics.quantiles(v, n=4) computes them.
func quartiles(v []float64) (q1, q2, q3 float64) {
	s := sorted(v)
	switch len(s) {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	m := len(s) + 1
	var q [3]float64
	for i := 1; i <= 3; i++ {
		j := min(max(i*m/4, 1), len(s)-1)
		delta := i*m - j*4
		q[i-1] = (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q[0], q[1], q[2]
}

// digest hashes the virtual-time outcome of a round: every sample, the
// op accounting and the given counters. Two runs of one plan must agree
// on it whether traced or not.
func digest(r *round, counters []int64) uint64 {
	h := fnv.New64a()
	var b [8]byte
	put := func(v uint64) {
		for i := range b {
			b[i] = byte(v >> (8 * i))
		}
		h.Write(b[:])
	}
	for _, v := range r.lat {
		put(math.Float64bits(v))
	}
	for _, v := range r.lag {
		put(math.Float64bits(v))
	}
	put(uint64(r.payload))
	put(uint64(r.first))
	put(uint64(r.last))
	put(uint64(r.done))
	put(uint64(r.corrupt))
	for _, c := range counters {
		put(uint64(c))
	}
	return h.Sum64()
}

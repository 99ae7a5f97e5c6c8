package main

import (
	"math"
	"sort"
)

// percentile reads the p-quantile (0 ≤ p ≤ 1) of an ascending slice by
// nearest rank: the smallest element with at least p of the samples at
// or below it. Nearest rank never interpolates, so a failed call's +Inf
// latency is either counted or not, never averaged in.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	rank := int(math.Ceil(p*float64(len(sorted)))) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= len(sorted) {
		rank = len(sorted) - 1
	}
	return sorted[rank]
}

// median sorts a copy of xs and returns its middle (mean of the two
// middle values for an even count).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	mid := len(s) / 2
	if len(s)%2 == 1 {
		return s[mid]
	}
	return (s[mid-1] + s[mid]) / 2
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// quartiles returns the first and third quartile as Python's
// statistics.quantiles(xs, n=4) computes them (the "exclusive" method:
// position q·(n+1) with linear interpolation, clamped to the ends), so
// the -repeat self-check sees the same spreads the driver does.
func quartiles(xs []float64) (q1, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n < 2 {
		return s[0], s[0]
	}
	at := func(q int) float64 {
		j := q * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(q*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(3)
}

// spread is the interquartile range as a share of the median.
func spread(xs []float64) float64 {
	q1, q3 := quartiles(xs)
	return (q3 - q1) / median(xs)
}

// keptWindows returns the indices of the quietest quarter of the windows:
// those with the smallest cost (wall time per offload in a closed loop,
// mean latency in an open loop), ties broken by window order; at least
// two, all of them when there are fewer. Disturbance on a shared box only
// ever adds time, so the quietest windows estimate what the program
// itself costs. On the sizing box the quietest quarter repeated about
// twice as well between runs as the quieter half, and that as well again
// as the all-window median.
func keptWindows(cost []float64) []int {
	idx := make([]int, len(cost))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return cost[idx[a]] < cost[idx[b]] })
	kept := idx[:min(len(idx), max(2, len(idx)/4))]
	sort.Ints(kept)
	return kept
}

// pick gathers xs at the given indices.
func pick(xs []float64, idx []int) []float64 {
	out := make([]float64, len(idx))
	for i, j := range idx {
		out[i] = xs[j]
	}
	return out
}

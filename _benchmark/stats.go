package main

import (
	"math"
	"sort"
)

// percentile returns the q-quantile (0 ≤ q ≤ 1) of xs by linear
// interpolation between closest ranks. xs is sorted in place.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return xs[lo] + (xs[hi]-xs[lo])*(pos-float64(lo))
}

// tailOK reports whether n samples hold at least ten beyond the
// q-quantile, the least a tail percentile needs to mean anything.
func tailOK(n int, q float64) bool {
	return float64(n)*(1-q) >= 10
}

// quartiles returns the first quartile, median and third quartile of xs
// the way Python's statistics.quantiles(xs, n=4) computes them (the
// default "exclusive" method), so that spreads printed here match the
// ones a Python reader computes from the same values.
func quartiles(xs []float64) (q1, med, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return math.NaN(), math.NaN(), math.NaN()
	}
	if n == 1 {
		return s[0], s[0], s[0]
	}
	cut := func(i int) float64 {
		m := n + 1
		j := min(max(i*m/4, 1), n-1)
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(2), cut(3)
}

// median returns the middle value of xs (mean of the two middles for an
// even count) without modifying xs.
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	return percentile(s, 0.5)
}

// latHist is a fixed-size histogram of latencies in milliseconds, so that
// recording a run's latencies does not grow the heap the run measures.
// Buckets are 0.1% wide on a log scale from 1 µs up; a quantile is read
// at its bucket's geometric middle, within 0.05% of the sample.
type latHist struct {
	counts [latBuckets]uint32
	n      int
}

const (
	latMinMS   = 1e-3
	latGrowth  = 1.001
	latBuckets = 18_500 // up to about 100 s
)

func (h *latHist) add(ms float64) {
	i := 0
	if ms > latMinMS {
		i = min(int(math.Log(ms/latMinMS)/math.Log(latGrowth)), latBuckets-1)
	}
	h.counts[i]++
	h.n++
}

// quantile returns the q-quantile (nearest rank) of the recorded values.
func (h *latHist) quantile(q float64) float64 {
	if h.n == 0 {
		return math.NaN()
	}
	rank := int(math.Ceil(q * float64(h.n)))
	rank = min(max(rank, 1), h.n)
	seen := 0
	for i, c := range h.counts {
		seen += int(c)
		if seen >= rank {
			return latMinMS * math.Pow(latGrowth, float64(i)+0.5)
		}
	}
	return math.NaN()
}

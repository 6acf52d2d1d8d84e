package main

import (
	"math"
	"sort"
)

// percentile reads the q-quantile (0 < q < 1) from ascending samples by
// nearest rank; 0 for an empty set.
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

// supported reports whether n samples leave at least ten beyond the
// q-quantile, the rule for reporting a tail percentile at all.
func supported(n int, q float64) bool {
	return float64(n)*(1-q) >= 10
}

func sortedCopy(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

// median returns the middle value (mean of the middle two for even n).
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := sortedCopy(v)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

func mean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range v {
		sum += x
	}
	return sum / float64(len(v))
}

// quartileSpread is the distance between the first and third quartile as
// a share of the median — the same statistic the driver computes across
// runs (Python's statistics.quantiles(v, n=4), exclusive method). It
// needs two values; fewer, or a zero median, report 0.
func quartileSpread(v []float64) float64 {
	if len(v) < 2 {
		return 0
	}
	s := sortedCopy(v)
	med := median(s)
	if med == 0 {
		return 0
	}
	quart := func(k int) float64 {
		// Exclusive method: position k*(n+1)/4 on a 1-based scale, clamped.
		n := len(s)
		j := k * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(k*(n+1)) - float64(j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return math.Abs(quart(3)-quart(1)) / math.Abs(med)
}

// percentileOverRounds reports the q-quantile of a round-structured
// latency sample: the median across rounds of each round's own quantile
// when every round supports it alone, else the quantile of the pooled
// samples. spread is the rounds' quartile spread (0 when pooled), n the
// total sample count.
func percentileOverRounds(rounds [][]float64, q float64) (value, spread float64, n int) {
	perRound := true
	for _, r := range rounds {
		n += len(r)
		if !supported(len(r), q) {
			perRound = false
		}
	}
	if perRound && len(rounds) > 1 {
		vals := make([]float64, len(rounds))
		for i, r := range rounds {
			vals[i] = percentile(sortedCopy(r), q)
		}
		return median(vals), quartileSpread(vals), n
	}
	pooled := make([]float64, 0, n)
	for _, r := range rounds {
		pooled = append(pooled, r...)
	}
	sort.Float64s(pooled)
	return percentile(pooled, q), 0, n
}

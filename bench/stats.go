package main

import (
	"math"
	"sort"
)

// percentile returns the p-quantile (0 <= p <= 1) of an ascending slice by
// linear interpolation between closest ranks; 0 for an empty slice.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := p * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return sorted[lo] + (sorted[hi]-sorted[lo])*(pos-float64(lo))
}

// pool collects one kind of duration over all slices of a run, both as
// measured and scaled to reference host speed.
type pool struct {
	raw, corrected []float64
}

// add scales one slice's raw samples by the slice's speed factor and pools
// both forms.
func (p *pool) add(samples []float64, factor float64) {
	for _, s := range samples {
		p.raw = append(p.raw, s)
		p.corrected = append(p.corrected, s*factor)
	}
}

func sortedCopy(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

func median(v []float64) float64 { return percentile(sortedCopy(v), 0.5) }

// iqrShare is the distance between the first and third quartile as a share
// of the median — the spread statistic the acceptance driver uses
// (Python's statistics.quantiles(v, n=4): exclusive method).
func iqrShare(v []float64) float64 {
	s := sortedCopy(v)
	n := len(s)
	if n < 2 {
		return 0
	}
	q := func(k int) float64 { // k-th quartile, exclusive method
		pos := float64(k) * float64(n+1) / 4
		j := int(math.Floor(pos))
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		return s[j-1] + (s[j]-s[j-1])*(pos-float64(j))
	}
	return (q(3) - q(1)) / percentile(s, 0.5)
}

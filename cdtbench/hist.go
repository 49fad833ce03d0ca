package main

import (
	"math/bits"
	"time"
)

// histSub is the number of sub-buckets per power of two: bucket width
// is under 1/histSub (0.8%) of the value it holds.
const histSub = 128

// latencyHist is a log-linear histogram of durations. Its size is
// fixed, so recording a run's latencies costs the same memory however
// many operations the run completes — peak RSS then measures the
// program, not the benchmark's bookkeeping.
type latencyHist struct {
	counts [64 * histSub]uint64
	n      uint64
}

// bucket maps ns to its bucket: values below histSub get one bucket
// each, larger ones keep their top log2(histSub)+1 bits.
func bucket(ns uint64) int {
	if ns < histSub {
		return int(ns)
	}
	shift := bits.Len64(ns) - bits.Len64(histSub)
	return (shift+1)*histSub + int(ns>>shift) - histSub
}

// bounds is bucket b's lower bound and width in nanoseconds.
func bounds(b int) (lo, width uint64) {
	if b < histSub {
		return uint64(b), 1
	}
	shift := b/histSub - 1
	return uint64(b%histSub+histSub) << shift, 1 << shift
}

func (h *latencyHist) record(d time.Duration) {
	if d < 0 {
		d = 0
	}
	h.counts[bucket(uint64(d))]++
	h.n++
}

func (h *latencyHist) merge(o *latencyHist) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
}

// quantile is the q-quantile, interpolated linearly inside the bucket
// holding it.
func (h *latencyHist) quantile(q float64) time.Duration {
	if h.n == 0 {
		return 0
	}
	rank := q * float64(h.n-1)
	var seen uint64
	for b, c := range h.counts {
		if c == 0 {
			continue
		}
		if float64(seen+c) > rank {
			lo, width := bounds(b)
			return time.Duration(float64(lo) + float64(width)*(rank-float64(seen)+0.5)/float64(c))
		}
		seen += c
	}
	lo, width := bounds(len(h.counts) - 1)
	return time.Duration(lo + width)
}

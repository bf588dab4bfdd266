package main

import (
	"math/bits"
	"time"
)

// histogram is a fixed-memory, log-bucketed latency histogram. Values are
// nanoseconds. Every power of two is split into histSub linear
// sub-buckets, so a bucket's width is at most 1/histSub of its lower
// bound, and reporting the bucket midpoint is off by at most
// 1/(2·histSub) of the true value (histRelErr). Memory is the same
// whatever the sample count: it never keeps individual samples.
type histogram struct {
	counts [histBuckets]int64
	n      int64
	max    int64
}

const (
	histSubBits = 6
	histSub     = 1 << histSubBits
	// histMaxExp caps recorded values at 2^histMaxExp ns (about 18
	// minutes); anything larger is clamped into the top bucket.
	histMaxExp  = 40
	histBuckets = (histMaxExp - histSubBits + 1) * histSub
	// histRelErr bounds |reported − true| / true for any percentile.
	histRelErr = 1.0 / (2 * histSub)
)

func histBucket(v int64) int {
	if v < 0 {
		v = 0
	}
	if v >= 1<<histMaxExp {
		v = 1<<histMaxExp - 1
	}
	if v < histSub {
		return int(v)
	}
	e := bits.Len64(uint64(v)) - histSubBits - 1
	return (e+1)*histSub + int(v>>e) - histSub
}

// histBounds returns the smallest and largest value bucket b holds.
func histBounds(b int) (lo, hi int64) {
	if b < histSub {
		return int64(b), int64(b)
	}
	e := b/histSub - 1
	m := int64(b%histSub + histSub)
	return m << e, (m+1)<<e - 1
}

func (h *histogram) record(d time.Duration) {
	v := int64(d)
	h.counts[histBucket(v)]++
	h.n++
	if v > h.max {
		h.max = v
	}
}

func (h *histogram) merge(o *histogram) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
	if o.max > h.max {
		h.max = o.max
	}
}

// quantile returns the q-quantile (0 ≤ q ≤ 1) as the midpoint of the
// bucket holding the sample of rank ceil(q·n); 0 for an empty histogram.
func (h *histogram) quantile(q float64) time.Duration {
	if h.n == 0 {
		return 0
	}
	rank := int64(q*float64(h.n) + 0.999999)
	if rank < 1 {
		rank = 1
	}
	if rank > h.n {
		rank = h.n
	}
	var seen int64
	for b, c := range h.counts {
		seen += c
		if seen >= rank {
			lo, hi := histBounds(b)
			return time.Duration((lo + hi) / 2)
		}
	}
	return time.Duration(h.max)
}

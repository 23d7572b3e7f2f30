package main

import (
	"math"
	"sort"
	"sync/atomic"
)

// hist is a fixed-size, concurrently updatable latency histogram with
// logarithmic buckets 0.1% wide, so percentiles keep four significant digits
// while memory stays constant however many requests a run completes.
// (stats.Histogram's ~12% buckets would round run-to-run differences away.)
type hist struct {
	counts []atomic.Int64
	n      atomic.Int64
}

const (
	histGrowth = 1.001
	histMaxNS  = 1e11 // values above 100s land in the last bucket
)

var (
	histLogGrowth = math.Log(histGrowth)
	histBuckets   = int(math.Log(histMaxNS)/histLogGrowth) + 2
)

func newHist() *hist { return &hist{counts: make([]atomic.Int64, histBuckets)} }

// bucketOf maps a value to its bucket; bucket 0 holds everything below 1.
func bucketOf(v int64) int {
	if v < 1 {
		return 0
	}
	b := 1 + int(math.Log(float64(v))/histLogGrowth)
	if b >= histBuckets {
		b = histBuckets - 1
	}
	return b
}

func (h *hist) add(v int64) {
	h.counts[bucketOf(v)].Add(1)
	h.n.Add(1)
}

func (h *hist) count() int { return int(h.n.Load()) }

// percentile returns the nearest-rank p-th percentile, interpolated
// geometrically within its bucket by rank. Call after every writer is done.
func (h *hist) percentile(p float64) float64 {
	n := h.count()
	if n == 0 {
		return 0
	}
	r := int64(rankOf(n, p))
	var cum int64
	for b := range h.counts {
		c := h.counts[b].Load()
		if cum+c < r {
			cum += c
			continue
		}
		if b == 0 {
			return 0
		}
		lo := math.Exp(float64(b-1) * histLogGrowth)
		frac := (float64(r-cum) - 0.5) / float64(c)
		return lo * math.Pow(histGrowth, frac)
	}
	return 0
}

// rankOf is the 1-based nearest rank of the p-th percentile among n samples.
func rankOf(n int, p float64) int {
	r := int(math.Ceil(p / 100 * float64(n)))
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

// beyond counts the samples strictly above the p-th percentile's rank.
func beyond(n int, p float64) int { return n - rankOf(n, p) }

// tailLadder lists the percentiles a tail is reported at, highest first.
var tailLadder = []float64{99.99, 99.9, 99, 90, 50}

// tailPercentile picks the highest percentile of the ladder that has at
// least ten samples beyond it, so a reported tail always rests on more than
// a handful of observations. ok is false when even the median lacks them.
func tailPercentile(n int) (p float64, ok bool) {
	for _, p := range tailLadder {
		if beyond(n, p) >= 10 {
			return p, true
		}
	}
	return 0, false
}

// interval is one span's extent on the monotonic clock.
type interval struct{ start, end int64 }

func (iv interval) dur() int64 { return iv.end - iv.start }

// selfTime is a span's duration minus the part of it its children cover.
// Children are clipped to the parent and overlaps count once.
func selfTime(parent interval, children []interval) int64 {
	clipped := make([]interval, 0, len(children))
	for _, c := range children {
		if c.start < parent.start {
			c.start = parent.start
		}
		if c.end > parent.end {
			c.end = parent.end
		}
		if c.end > c.start {
			clipped = append(clipped, c)
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i].start < clipped[j].start })
	var covered int64
	cur := interval{start: math.MinInt64, end: math.MinInt64}
	for _, c := range clipped {
		if c.start > cur.end {
			covered += cur.dur()
			cur = c
			continue
		}
		if c.end > cur.end {
			cur.end = c.end
		}
	}
	if cur.end > cur.start {
		covered += cur.dur()
	}
	return parent.dur() - covered
}

// overheadNS is the part of a wall-clock latency the device model does not
// explain: wall minus the modelled latency mapped to wall time at accel
// simulated nanoseconds per wall nanosecond.
func overheadNS(wallNS, modelledNS int64, accel float64) int64 {
	return wallNS - int64(float64(modelledNS)/accel)
}

// median of float64 values (the caller's slice is reordered).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	m := len(xs) / 2
	if len(xs)%2 == 1 {
		return xs[m]
	}
	return (xs[m-1] + xs[m]) / 2
}

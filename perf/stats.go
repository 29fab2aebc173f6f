package main

import (
	"math"
	"math/bits"
	"sort"
	"sync/atomic"
	"time"
)

// percentile returns the p-th percentile (0..100) of sorted by
// nearest-rank; 0 when there are no samples.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(p/100*float64(len(sorted)))) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= len(sorted) {
		rank = len(sorted) - 1
	}
	return sorted[rank]
}

// median returns the median of xs (not necessarily sorted); 0 when empty.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}

// per divides, answering 0 for an empty denominator so a workload that
// never touches a layer reports 0 for it instead of NaN.
func per(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// hist is a lock-free log-linear histogram of nanosecond durations:
// 16 sub-buckets per power of two, so a reported percentile is within
// ~6% of the true value. Seam decorators record into it from the
// engine's own goroutines, where a mutex or a sample slice would add
// more overhead than the call being timed.
type hist struct {
	count   atomic.Uint64
	total   atomic.Uint64
	buckets [histBuckets]atomic.Uint64
}

const (
	histSub     = 16
	histBuckets = 64 * histSub
)

func histIndex(ns uint64) int {
	if ns < histSub {
		return int(ns)
	}
	exp := bits.Len64(ns) - 1 // ≥ 4
	sub := (ns >> (uint(exp) - 4)) & (histSub - 1)
	return (exp-3)*histSub + int(sub)
}

// histValue is the lower bound of bucket i.
func histValue(i int) float64 {
	if i < histSub {
		return float64(i)
	}
	exp := i/histSub + 3
	sub := i % histSub
	return math.Ldexp(float64(histSub+sub), exp-4)
}

func (h *hist) add(d time.Duration) {
	ns := uint64(0)
	if d > 0 {
		ns = uint64(d)
	}
	h.count.Add(1)
	h.total.Add(ns)
	h.buckets[histIndex(ns)].Add(1)
}

// since records the time elapsed from t0.
func (h *hist) since(t0 time.Time) { h.add(time.Since(t0)) }

// quantileNS returns the p-th percentile in nanoseconds.
func (h *hist) quantileNS(p float64) float64 {
	n := h.count.Load()
	if n == 0 {
		return 0
	}
	want := uint64(math.Ceil(p / 100 * float64(n)))
	if want < 1 {
		want = 1
	}
	var seen uint64
	for i := range h.buckets {
		seen += h.buckets[i].Load()
		if seen >= want {
			return histValue(i)
		}
	}
	return histValue(histBuckets - 1)
}

func (h *hist) n() uint64        { return h.count.Load() }
func (h *hist) totalNS() float64 { return float64(h.total.Load()) }

// merge adds o's samples to h.
func (h *hist) merge(o *hist) {
	h.count.Add(o.count.Load())
	h.total.Add(o.total.Load())
	for i := range h.buckets {
		if n := o.buckets[i].Load(); n != 0 {
			h.buckets[i].Add(n)
		}
	}
}

// reset zeroes the histogram. Concurrent adds may straddle it; callers
// reset while the stack is idle between warm-up and the window.
func (h *hist) reset() {
	h.count.Store(0)
	h.total.Store(0)
	for i := range h.buckets {
		h.buckets[i].Store(0)
	}
}

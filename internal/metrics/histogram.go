package metrics

import (
	"math"
	"math/bits"
	"sync/atomic"
)

// Histogram is a lock-free log-linear histogram in the spirit of
// HdrHistogram: values (latencies in nanoseconds, sizes, ...) land in one
// of a fixed set of buckets whose width grows with magnitude, so tail
// quantiles (p99, p999) are accurate to a bounded relative error with no
// sampling and no lock. Observe is a single atomic add on the bucket
// plus count/sum bookkeeping — cheap enough for a data-path goroutine to
// call directly — and snapshots merge exactly across tasks because
// bucket counts add.
//
// Layout: values 0..31 get exact buckets; above that, each power-of-two
// magnitude is split into 32 linear sub-buckets (hdrSubBits), bounding
// the relative error of a reported quantile at 1/32 ≈ 3%.
const (
	hdrSubBits  = 5
	hdrSubCount = 1 << hdrSubBits
	// hdrBucketCount covers every int64 magnitude: 32 exact low buckets
	// plus 32 sub-buckets per power of two from 2^5 through 2^62.
	hdrBucketCount = (64 - hdrSubBits) * hdrSubCount
)

// hdrIndex maps a value to its bucket. Negative values clamp to 0.
func hdrIndex(v int64) int {
	if v < 0 {
		v = 0
	}
	u := uint64(v)
	if u < hdrSubCount {
		return int(u)
	}
	bit := bits.Len64(u) - 1 // floor(log2), ≥ hdrSubBits
	sub := (u >> (uint(bit) - hdrSubBits)) & (hdrSubCount - 1)
	return (bit-hdrSubBits+1)<<hdrSubBits | int(sub)
}

// hdrValue returns a representative (midpoint) value for a bucket index,
// the inverse of hdrIndex up to the bucket's width.
func hdrValue(idx int) int64 {
	if idx < hdrSubCount {
		return int64(idx)
	}
	bit := idx>>hdrSubBits - 1 + hdrSubBits
	sub := uint64(idx & (hdrSubCount - 1))
	step := uint64(1) << uint(bit-hdrSubBits)
	return int64(uint64(1)<<uint(bit) + sub*step + step/2)
}

// Histogram records values into fixed log-linear buckets with atomic
// counters; every method is safe for concurrent use and Observe never
// allocates or blocks.
type Histogram struct {
	counts [hdrBucketCount]atomic.Int64
	count  atomic.Int64
	sum    atomic.Int64
	min    atomic.Int64 // math.MaxInt64 when empty
	max    atomic.Int64 // math.MinInt64 when empty
}

// NewHistogram creates an empty histogram.
func NewHistogram() *Histogram {
	h := &Histogram{}
	h.min.Store(math.MaxInt64)
	h.max.Store(math.MinInt64)
	return h
}

// Observe records one value. Min and max are settled before the count
// moves, so a concurrent Snapshot that sees a non-zero count also sees
// a valid [Min, Max].
func (h *Histogram) Observe(v int64) {
	for {
		cur := h.min.Load()
		if v >= cur || h.min.CompareAndSwap(cur, v) {
			break
		}
	}
	for {
		cur := h.max.Load()
		if v <= cur || h.max.CompareAndSwap(cur, v) {
			break
		}
	}
	h.counts[hdrIndex(v)].Add(1)
	h.sum.Add(v)
	h.count.Add(1)
}

// Snapshot summarizes the histogram with its sparse bucket set, so
// quantiles survive the control-plane wire format and merge exactly
// across containers.
func (h *Histogram) Snapshot() HistogramSnapshot {
	s := HistogramSnapshot{Count: h.count.Load(), Sum: h.sum.Load()}
	if s.Count == 0 {
		return s
	}
	s.Min, s.Max = h.min.Load(), h.max.Load()
	for i := range h.counts {
		if n := h.counts[i].Load(); n > 0 {
			s.Buckets = append(s.Buckets, Bucket{Idx: int32(i), N: n})
		}
	}
	return s
}

// Quantile reports the approximate p-quantile directly from the live
// buckets (convenience for tests and benchmarks; exports go through
// Snapshot).
func (h *Histogram) Quantile(p float64) int64 {
	return h.Snapshot().Quantile(p)
}

// Bucket is one non-empty bucket of a histogram snapshot: a log-linear
// bucket index (see hdrIndex) and its count. Snapshots carry the sparse
// set so the wire format stays small.
type Bucket struct {
	Idx int32 `json:"i"`
	N   int64 `json:"n"`
}

// HistogramSnapshot is a point-in-time summary: exact count, sum, min
// and max plus the sparse bucket set quantiles are read from. It is
// exported so snapshots survive the control-plane wire format and the
// Topology Master can merge them across containers.
type HistogramSnapshot struct {
	Count int64 `json:"count"`
	Sum   int64 `json:"sum"`
	Min   int64 `json:"min"`
	Max   int64 `json:"max"`
	// Buckets is the sparse bucket set, sorted by Idx.
	Buckets []Bucket `json:"buckets,omitempty"`
}

// Mean returns the exact mean of all observed values.
func (s HistogramSnapshot) Mean() float64 {
	if s.Count == 0 {
		return 0
	}
	return float64(s.Sum) / float64(s.Count)
}

// Quantile returns the p-quantile (0 ≤ p ≤ 1) to within one bucket's
// width, clamped to [Min, Max]: the lowest and highest ranks are Min and
// Max exactly.
func (s HistogramSnapshot) Quantile(p float64) int64 {
	var total int64
	for _, b := range s.Buckets {
		total += b.N
	}
	rank := int64(p * float64(total-1))
	switch {
	case total == 0:
		return 0
	case rank <= 0:
		return s.Min
	case rank >= total-1:
		return s.Max
	}
	var seen int64
	for _, b := range s.Buckets {
		if seen += b.N; seen > rank {
			return min(max(hdrValue(int(b.Idx)), s.Min), s.Max)
		}
	}
	return s.Max
}

// Merge folds another snapshot of the same metric into s: counts, sums
// and bucket counts add, so the result equals one histogram that
// observed both populations.
func (s *HistogramSnapshot) Merge(o HistogramSnapshot) {
	if o.Count == 0 {
		return
	}
	if s.Count == 0 {
		s.Min, s.Max = o.Min, o.Max
	} else {
		s.Min, s.Max = min(s.Min, o.Min), max(s.Max, o.Max)
	}
	s.Count += o.Count
	s.Sum += o.Sum
	s.Buckets = mergeBuckets(s.Buckets, o.Buckets)
}

// mergeBuckets adds two sorted sparse bucket sets index-by-index.
func mergeBuckets(a, b []Bucket) []Bucket {
	if len(b) == 0 {
		return a
	}
	if len(a) == 0 {
		return append([]Bucket(nil), b...)
	}
	out := make([]Bucket, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i].Idx < b[j].Idx:
			out = append(out, a[i])
			i++
		case a[i].Idx > b[j].Idx:
			out = append(out, b[j])
			j++
		default:
			out = append(out, Bucket{Idx: a[i].Idx, N: a[i].N + b[j].N})
			i, j = i+1, j+1
		}
	}
	out = append(out, a[i:]...)
	out = append(out, b[j:]...)
	return out
}

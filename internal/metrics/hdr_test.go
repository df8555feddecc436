package metrics

import (
	"math"
	"sync"
	"testing"
)

func TestHDRIndexValueRoundtrip(t *testing.T) {
	// Values below hdrSubCount are exact; above, the representative value
	// must sit within the bucket's 1/32 relative error bound.
	for v := int64(0); v < hdrSubCount; v++ {
		if got := hdrValue(hdrIndex(v)); got != v {
			t.Fatalf("hdrValue(hdrIndex(%d)) = %d, want exact", v, got)
		}
	}
	for _, v := range []int64{32, 100, 1_000, 62_500, 1_000_000, 123_456_789, math.MaxInt64 / 2} {
		got := hdrValue(hdrIndex(v))
		if rel := math.Abs(float64(got-v)) / float64(v); rel > 1.0/hdrSubCount {
			t.Fatalf("hdrValue(hdrIndex(%d)) = %d, relative error %.4f > %.4f",
				v, got, rel, 1.0/hdrSubCount)
		}
	}
	if hdrIndex(-5) != 0 {
		t.Fatal("negative values must clamp to bucket 0")
	}
	// Index must grow monotonically so quantile scans see sorted values.
	prev := -1
	for _, v := range []int64{0, 1, 31, 32, 63, 64, 100, 1000, 1 << 20, 1 << 40} {
		idx := hdrIndex(v)
		if idx <= prev {
			t.Fatalf("hdrIndex not monotonic at %d: %d <= %d", v, idx, prev)
		}
		prev = idx
	}
}

func TestHDRQuantileAccuracy(t *testing.T) {
	h := NewHistogram()
	const n = 100_000
	for i := int64(1); i <= n; i++ {
		h.Observe(i)
	}
	for _, tc := range []struct {
		p     float64
		exact int64
	}{{0.50, n / 2}, {0.99, n * 99 / 100}, {0.999, n * 999 / 1000}} {
		got := h.Quantile(tc.p)
		if rel := math.Abs(float64(got-tc.exact)) / float64(tc.exact); rel > 0.04 {
			t.Errorf("p%g = %d, want ~%d (relative error %.4f)", tc.p*100, got, tc.exact, rel)
		}
	}
	s := h.Snapshot()
	if s.Count != n {
		t.Fatalf("count %d, want %d", s.Count, n)
	}
	if s.Min != 1 || s.Max != n {
		t.Fatalf("min/max = %d/%d, want 1/%d", s.Min, s.Max, n)
	}
	if s.Sum != n*(n+1)/2 {
		t.Fatalf("sum %d, want %d", s.Sum, int64(n)*(n+1)/2)
	}
}

func TestHDRSnapshotEmpty(t *testing.T) {
	h := NewHistogram()
	s := h.Snapshot()
	if s.Count != 0 || len(s.Buckets) != 0 || s.Min != 0 || s.Max != 0 {
		t.Fatalf("empty snapshot not zero: %+v", s)
	}
	if q := s.Quantile(0.99); q != 0 {
		t.Fatalf("empty quantile = %d", q)
	}
}

func TestHDRMergeAcrossSnapshots(t *testing.T) {
	// Two containers observe disjoint latency populations; the Topology
	// Master's merge must reproduce the combined distribution exactly
	// (bucket counts add by index).
	a, b := NewHistogram(), NewHistogram()
	for i := int64(1); i <= 10_000; i++ {
		a.Observe(i) // fast container
	}
	for i := int64(90_001); i <= 100_000; i++ {
		b.Observe(i) // slow container
	}
	sa, sb := a.Snapshot(), b.Snapshot()
	sa.Merge(sb)
	if sa.Count != 20_000 {
		t.Fatalf("merged count %d", sa.Count)
	}
	if sa.Min != 1 || sa.Max != 100_000 {
		t.Fatalf("merged min/max = %d/%d", sa.Min, sa.Max)
	}
	// The median of the merged population straddles the two halves; p99
	// lands deep in the slow container's range.
	if q := sa.Quantile(0.99); q < 90_000 {
		t.Errorf("merged p99 = %d, want ≥ 90000", q)
	}
	if q := sa.Quantile(0.25); q > 11_000 {
		t.Errorf("merged p25 = %d, want within the fast container's range", q)
	}

	// Merging must equal observing everything into one histogram.
	both := NewHistogram()
	for i := int64(1); i <= 10_000; i++ {
		both.Observe(i)
	}
	for i := int64(90_001); i <= 100_000; i++ {
		both.Observe(i)
	}
	want := both.Snapshot()
	if len(sa.Buckets) != len(want.Buckets) {
		t.Fatalf("merged bucket count %d, want %d", len(sa.Buckets), len(want.Buckets))
	}
	for i := range want.Buckets {
		if sa.Buckets[i] != want.Buckets[i] {
			t.Fatalf("bucket %d: merged %+v, want %+v", i, sa.Buckets[i], want.Buckets[i])
		}
	}
}

func TestHDRConcurrentObserve(t *testing.T) {
	h := NewHistogram()
	const goroutines, per = 8, 10_000
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				h.Observe(int64(g*per + i + 1))
			}
		}(g)
	}
	wg.Wait()
	s := h.Snapshot()
	if s.Count != goroutines*per {
		t.Fatalf("count %d, want %d", s.Count, goroutines*per)
	}
	const n = int64(goroutines * per)
	if s.Sum != n*(n+1)/2 {
		t.Fatalf("sum %d, want %d", s.Sum, n*(n+1)/2)
	}
	if s.Min != 1 || s.Max != n {
		t.Fatalf("min/max = %d/%d", s.Min, s.Max)
	}
}

func TestRegistryHDR(t *testing.T) {
	r := NewRegistry()
	tags := Tags{Component: "stmgr", Task: -1}
	h := r.HDR(MStmgrRouteLatency, tags)
	if h == nil {
		t.Fatal("nil HDR")
	}
	if again := r.HDR(MStmgrRouteLatency, tags); again != h {
		t.Fatal("HDR not idempotent per (name, tags)")
	}
	h.Observe(1500)
	h.Observe(3000)
	snap := r.Snapshot(1)
	found := false
	for _, m := range snap.Histograms {
		if m.Name == MStmgrRouteLatency {
			found = true
			if m.Count != 2 {
				t.Fatalf("exported count %d", m.Count)
			}
			if len(m.Buckets) == 0 {
				t.Fatal("exported snapshot missing HDR buckets")
			}
		}
	}
	if !found {
		t.Fatal("HDR histogram missing from registry snapshot")
	}
}

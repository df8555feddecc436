package metrics

import (
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterAndGauge(t *testing.T) {
	r := NewRegistry()
	tags := Tags{Component: "word", Task: 3}
	c := r.Counter("tuples", tags)
	c.Inc(5)
	c.Inc(2)
	if c.Value() != 7 {
		t.Errorf("counter = %d", c.Value())
	}
	if r.Counter("tuples", tags) != c {
		t.Error("counter not memoized")
	}
	if r.Counter("tuples", Tags{Component: "word", Task: 4}) == c {
		t.Error("distinct tags must give distinct counters")
	}
	g := r.Gauge("queue", tags)
	g.Set(10)
	g.Set(3)
	if g.Value() != 3 {
		t.Errorf("gauge = %d", g.Value())
	}
}

func TestHistogramExactStats(t *testing.T) {
	h := NewHistogram()
	for _, v := range []int64{5, 1, 9, 3} {
		h.Observe(v)
	}
	s := h.Snapshot()
	if s.Count != 4 || s.Sum != 18 || s.Min != 1 || s.Max != 9 {
		t.Errorf("snapshot = %+v", s)
	}
	if s.Mean() != 4.5 {
		t.Errorf("mean = %v", s.Mean())
	}
	if q := s.Quantile(0); q != 1 {
		t.Errorf("q0 = %d", q)
	}
	if q := s.Quantile(1); q != 9 {
		t.Errorf("q1 = %d", q)
	}
}

func TestHistogramEmpty(t *testing.T) {
	s := NewHistogram().Snapshot()
	if s.Count != 0 || s.Min != 0 || s.Max != 0 || s.Mean() != 0 || s.Quantile(0.5) != 0 {
		t.Errorf("empty snapshot = %+v", s)
	}
}

// TestHistogramReservoirBounded keeps its name from the sampling
// reservoir the bucket histogram replaced: ten thousand distinct values
// keep an exact count and a bounded bucket set, and the median stays
// within one bucket's relative error.
func TestHistogramReservoirBounded(t *testing.T) {
	h := NewHistogram()
	for i := int64(0); i < 10000; i++ {
		h.Observe(i)
	}
	s := h.Snapshot()
	if s.Count != 10000 || s.Sum != 9999*10000/2 {
		t.Errorf("count=%d sum=%d", s.Count, s.Sum)
	}
	// 0..63 get one bucket each, then 32 per power of two up to 2^13.
	if n := len(s.Buckets); n > 64+8*hdrSubCount {
		t.Errorf("buckets = %d, want ≤ %d", n, 64+8*hdrSubCount)
	}
	if s.Min != 0 || s.Max != 9999 {
		t.Errorf("min/max = %d/%d", s.Min, s.Max)
	}
	if q := s.Quantile(0.5); q < 5000*31/32 || q > 5000*33/32 {
		t.Errorf("median = %d, want 5000 within 1/32", q)
	}
}

// TestHistogramReservoirAtCapacityBoundary keeps its name from the
// sampling reservoir and now pins the bucket layout's exactness
// boundary: every value below 64 gets a bucket of its own, and the first
// two values past it share one, while count and sum stay exact.
func TestHistogramReservoirAtCapacityBoundary(t *testing.T) {
	const exact = 2 * hdrSubCount
	h := NewHistogram()
	for i := int64(0); i < exact; i++ {
		h.Observe(i)
	}
	s := h.Snapshot()
	if s.Count != exact || len(s.Buckets) != exact {
		t.Fatalf("below the boundary: count=%d buckets=%d", s.Count, len(s.Buckets))
	}
	for i, b := range s.Buckets {
		if b.N != 1 || hdrValue(int(b.Idx)) != int64(i) {
			t.Fatalf("bucket %d = %+v (value %d), want one exact observation", i, b, hdrValue(int(b.Idx)))
		}
	}

	h.Observe(exact)
	h.Observe(exact + 1)
	s = h.Snapshot()
	if s.Count != exact+2 || len(s.Buckets) != exact+1 {
		t.Errorf("past the boundary: count=%d buckets=%d", s.Count, len(s.Buckets))
	}
	if want := int64(exact+1) * (exact + 2) / 2; s.Sum != want {
		t.Errorf("sum = %d, want %d", s.Sum, want)
	}
	if s.Max != exact+1 {
		t.Errorf("max = %d, want %d", s.Max, exact+1)
	}
}

// TestHistogramConcurrentObserveQuantile hammers Observe from several
// goroutines while others continuously snapshot and read quantiles; run
// with -race this doubles as the data-race check for the lock-free
// Observe against Snapshot.
func TestHistogramConcurrentObserveQuantile(t *testing.T) {
	h := NewHistogram()
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			for i := int64(0); i < 5000; i++ {
				h.Observe(seed*10_000 + i)
			}
		}(int64(w))
	}
	var readers sync.WaitGroup
	for w := 0; w < 4; w++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				s := h.Snapshot()
				if q := s.Quantile(0.99); q < 0 {
					t.Error("negative quantile")
					return
				}
				if q := s.Quantile(0.5); s.Count > 0 && (q < s.Min || q > s.Max) {
					t.Errorf("median %d outside [%d, %d]", q, s.Min, s.Max)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(stop)
	readers.Wait()
	if got := h.Snapshot().Count; got != 20000 {
		t.Errorf("count = %d", got)
	}
}

func TestRegistrySnapshot(t *testing.T) {
	r := NewRegistry()
	tags := Tags{Component: "c", Task: 1}
	r.Counter("a", tags).Inc(1)
	r.Gauge("b", tags).Set(2)
	r.Histogram("h", tags).Observe(3)
	s := r.Snapshot(7)
	if s.Container != 7 || len(s.Counters) != 1 || len(s.Gauges) != 1 || len(s.Histograms) != 1 {
		t.Fatalf("snapshot = %+v", s)
	}
	if s.Counters[0].Name != "a" || s.Counters[0].Component != "c" || s.Counters[0].Value != 1 {
		t.Errorf("counter point = %+v", s.Counters[0])
	}
	if s.Gauges[0].Value != 2 || s.Histograms[0].Count != 1 {
		t.Errorf("points = %+v %+v", s.Gauges[0], s.Histograms[0])
	}
	if s.TakenAtUnixNs == 0 {
		t.Error("snapshot not timestamped")
	}
}

func TestViewMergesAcrossContainers(t *testing.T) {
	r1, r2 := NewRegistry(), NewRegistry()
	r1.Counter(MExecuteCount, Tags{Component: "count", Task: 1}).Inc(10)
	r2.Counter(MExecuteCount, Tags{Component: "count", Task: 2}).Inc(32)
	r2.Counter(MExecuteCount, Tags{Component: "other", Task: 3}).Inc(5)
	r1.Gauge(MSpoutPending, Tags{Component: "word", Task: 0}).Set(7)
	r2.Gauge(MSpoutPending, Tags{Component: "word", Task: 4}).Set(9)
	for i := int64(1); i <= 100; i++ {
		r1.Histogram(MExecuteLatency, Tags{Component: "count", Task: 1}).Observe(i)
		r2.Histogram(MExecuteLatency, Tags{Component: "count", Task: 2}).Observe(1000 + i)
	}
	s1, s2 := r1.Snapshot(1), r2.Snapshot(2)

	v := MergeSnapshots(&s1, &s2)
	if got := v.Counter(MExecuteCount, "count"); got != 42 {
		t.Errorf("component counter = %d, want 42", got)
	}
	if got := v.Counter(MExecuteCount, ""); got != 47 {
		t.Errorf("topology counter = %d, want 47", got)
	}
	if got, ok := v.TaskCounter(MExecuteCount, "count", 2); !ok || got != 32 {
		t.Errorf("task counter = %d,%v", got, ok)
	}
	if got := v.Gauge(MSpoutPending, "word"); got != 16 {
		t.Errorf("gauge sum = %d, want 16", got)
	}
	hs := v.Histogram(MExecuteLatency, "count")
	if hs.Count != 200 || hs.Min != 1 || hs.Max != 1100 {
		t.Errorf("merged histogram = %+v", hs)
	}
	// Quantiles span both containers' buckets.
	if q := hs.Quantile(0.99); q < 1000 {
		t.Errorf("p99 = %d, should land in the slow container's range", q)
	}
	if comps := v.Components(); len(comps) != 3 {
		t.Errorf("components = %v", comps)
	}
	// Re-adding a newer snapshot replaces, never double-counts.
	r1.Counter(MExecuteCount, Tags{Component: "count", Task: 1}).Inc(1)
	s1b := r1.Snapshot(1)
	v.Add(&s1b)
	if got := v.Counter(MExecuteCount, "count"); got != 43 {
		t.Errorf("after re-add = %d, want 43", got)
	}
}

func TestWritePrometheus(t *testing.T) {
	r := NewRegistry()
	r.Counter(MExecuteCount, Tags{Component: "count", Task: 3}).Inc(9)
	r.Gauge(MSpoutPending, Tags{Component: "word", Task: 1}).Set(4)
	r.Histogram(MExecuteLatency, Tags{Component: "count", Task: 3}).Observe(100)
	s := r.Snapshot(1)
	v := MergeSnapshots(&s)

	var b strings.Builder
	WritePrometheus(&b, "heron", map[string]*TopologyView{"wc": v})
	out := b.String()
	for _, want := range []string{
		"# TYPE heron_instance_execute_count counter",
		`heron_instance_execute_count{topology="wc",component="count",task="3"} 9`,
		"# TYPE heron_spout_pending gauge",
		`heron_spout_pending{topology="wc",component="word",task="1"} 4`,
		"# TYPE heron_instance_execute_latency summary",
		`heron_instance_execute_latency{topology="wc",component="count",task="3",quantile="0.99"} 100`,
		`heron_instance_execute_latency_count{topology="wc",component="count",task="3"} 1`,
		`heron_instance_execute_latency_sum{topology="wc",component="count",task="3"} 100`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("prometheus output missing %q:\n%s", want, out)
		}
	}
	for _, line := range strings.Split(strings.TrimSpace(out), "\n") {
		if !strings.HasPrefix(line, "#") && !strings.Contains(line, `{topology="wc",`) {
			t.Errorf("series without topology label: %q", line)
		}
	}
}

// TestViewHistogramMergeWeightsByCount merges a busy task and an idle one:
// each task weighs in by its count, so the topology p99 is the busy
// task's 1 ms, not the idle task's 50 ms.
func TestViewHistogramMergeWeightsByCount(t *testing.T) {
	const ms = int64(time.Millisecond)
	busy, idle := NewRegistry(), NewRegistry()
	for i := 0; i < 100_000; i++ {
		busy.Histogram(MCompleteLatency, Tags{Component: "word", Task: 0}).Observe(ms)
	}
	for i := 0; i < 100; i++ {
		idle.Histogram(MCompleteLatency, Tags{Component: "word", Task: 1}).Observe(50 * ms)
	}
	s1, s2 := busy.Snapshot(1), idle.Snapshot(2)
	hs := MergeSnapshots(&s1, &s2).Histogram(MCompleteLatency, "")
	if hs.Count != 100_100 {
		t.Fatalf("merged count = %d", hs.Count)
	}
	if p99 := hs.Quantile(0.99); p99 < ms*97/100 || p99 > ms*103/100 {
		t.Errorf("topology p99 = %d ns, want 1 ms within 3%%", p99)
	}

	// Clamp: above the exact buckets, the end ranks are Min and Max
	// exactly, not their buckets' midpoints.
	h := NewHistogram()
	for _, v := range []int64{1000, 1003, 5000, 77_777} {
		h.Observe(v)
	}
	if s := h.Snapshot(); s.Quantile(0) != 1000 || s.Quantile(1) != 77_777 {
		t.Errorf("q0/q1 = %d/%d, want 1000/77777", s.Quantile(0), s.Quantile(1))
	}
}

func TestManagerExports(t *testing.T) {
	r := NewRegistry()
	r.Counter("x", Tags{}).Inc(1)
	var mu sync.Mutex
	var got []Snapshot
	m := NewManager(3, r, 10*time.Millisecond, func(s Snapshot) {
		mu.Lock()
		got = append(got, s)
		mu.Unlock()
	})
	m.Start()
	time.Sleep(50 * time.Millisecond)
	m.Stop()
	mu.Lock()
	defer mu.Unlock()
	if len(got) < 2 {
		t.Fatalf("exports = %d", len(got))
	}
	last := got[len(got)-1]
	if last.Container != 3 || len(last.Counters) != 1 || last.Counters[0].Value != 1 {
		t.Errorf("last = %+v", last)
	}
}

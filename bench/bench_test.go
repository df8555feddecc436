package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// These tests cover the helpers the numbers rest on. None starts a
// topology; the whole file runs in well under a second.

func TestPercentileNearestRank(t *testing.T) {
	ten := []int64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	cases := []struct {
		sorted []int64
		p      float64
		want   int64
	}{
		{nil, 0.5, 0},
		{[]int64{7}, 0.99, 7},
		{ten, 0.50, 5},
		{ten, 0.90, 9},
		{ten, 0.91, 10},
		{ten, 0.99, 10},
		{ten, 1.00, 10},
		{ten, 0.001, 1},
	}
	for _, c := range cases {
		if got := percentile(c.sorted, c.p); got != c.want {
			t.Errorf("percentile(%v, %v) = %d, want %d", c.sorted, c.p, got, c.want)
		}
	}
}

func TestMedianLeavesInputAlone(t *testing.T) {
	in := []float64{9, 1, 5}
	if got := median(in); got != 5 {
		t.Errorf("median = %v, want 5", got)
	}
	if in[0] != 9 || in[1] != 1 || in[2] != 5 {
		t.Errorf("median reordered its input: %v", in)
	}
	if got := median([]float64{4, 2, 8, 6}); got != 5 {
		t.Errorf("even median = %v, want 5", got)
	}
	if got := median(nil); got != 0 {
		t.Errorf("empty median = %v, want 0", got)
	}
}

func TestStampRoundTrip(t *testing.T) {
	const ns = 123_456_789_012
	s := tracedStamp(ns, 3, 2047)
	if stampNs(s) != ns || stampSpout(s) != 3 || stampSlot(s) != 2047 || s&stampTraced == 0 {
		t.Errorf("traced stamp lost a field: ns=%d spout=%d slot=%d", stampNs(s), stampSpout(s), stampSlot(s))
	}
	if p := stamp(ns); p&stampTraced != 0 || stampNs(p) != ns {
		t.Errorf("plain stamp: traced=%v ns=%d", p&stampTraced != 0, stampNs(p))
	}
	// Constant width is the reason for the always-set bit.
	if a, b := stamp(1), stamp(stampTimeMask); (a >= 1<<61) != (b >= 1<<61) || a < 1<<61 {
		t.Errorf("stamps do not share the width bit: %x %x", a, b)
	}
}

// A process older than 2^40 ns stamps with a wrapped clock; the time since
// the stamp must not gain 2^40 ns for it.
func TestSinceStampAcrossWrap(t *testing.T) {
	const emit, took = 1<<40 - 500, 1500 // the clock wraps between the two
	for _, s := range []int64{stamp(emit), tracedStamp(emit, 1, 7)} {
		if got := sinceStamp(emit+took, s); got != took {
			t.Errorf("sinceStamp across the wrap = %d, want %d", got, took)
		}
	}
	// An ETL aggregator keeps the bare clock value until its next flush.
	if got := sinceStamp(3<<40+took, stampNs(stamp(3<<40))); got != took {
		t.Errorf("sinceStamp two wraps on = %d, want %d", got, took)
	}
}

// replay mirrors what a spout emits: the first n draws of its generator.
func replay(dict []string, seed int64, instance int, n int) map[string]int64 {
	out := map[string]int64{}
	rng := newSplitmix(seed, instance)
	for i := 0; i < n; i++ {
		out[dict[rng.intn(len(dict))]]++
	}
	return out
}

func TestFoldWordsMatchesTheGenerators(t *testing.T) {
	dict := []string{"a", "b", "c", "d", "e"}
	ref := foldWords(dict, 42, []int64{1000, 1500})
	if ref.tuples != 2500 {
		t.Fatalf("tuples = %d, want 2500", ref.tuples)
	}
	want := replay(dict, 42, 0, 1000)
	for k, v := range replay(dict, 42, 1, 1500) {
		want[k] += v
	}
	var total int64
	for k, v := range want {
		if ref.want[k] != v {
			t.Errorf("word %q: reference %d, generators %d", k, ref.want[k], v)
		}
		total += v
	}
	if total != 2500 {
		t.Errorf("generators emitted %d", total)
	}
	if other := foldWords(dict, 43, []int64{1000, 1500}); equalCounts(other.want, ref.want) {
		t.Error("a different seed produced the same input")
	}
	for i := 0; i < 10_000; i++ {
		rng := newSplitmix(int64(i), 0)
		if k := rng.intn(len(dict)); k < 0 || k >= len(dict) {
			t.Fatalf("intn out of range: %d", k)
		}
	}
}

func equalCounts(a, b map[string]int64) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if b[k] != v {
			return false
		}
	}
	return true
}

func TestCompareRules(t *testing.T) {
	ref := &reference{want: map[string]int64{"a": 3, "b": 2}}
	wc := auditRule{onePerTask: true, valuesAreCounts: true}
	cases := []struct {
		name string
		out  got
		rule auditRule
		ok   bool
	}{
		{"exact", got{{"a": 3}, {"b": 2}}, wc, true},
		{"short without a timeout", got{{"a": 2}, {"b": 2}}, wc, false},
		{"surplus without acking", got{{"a": 4}, {"b": 2}}, wc, false},
		{"key on two tasks", got{{"a": 2}, {"a": 1, "b": 2}}, wc, false},
		{"unknown key", got{{"a": 3, "z": 1}, {"b": 2}}, wc, false},
		{"undelivered accounts for the shortfall", got{{"a": 2}, {"b": 2}},
			auditRule{onePerTask: true, valuesAreCounts: true, undelivered: 1}, true},
		{"undelivered does not account for it", got{{"a": 1}, {"b": 2}},
			auditRule{onePerTask: true, valuesAreCounts: true, undelivered: 1}, false},
		{"at-least-once within the replays", got{{"a": 4}, {"b": 2}},
			auditRule{onePerTask: true, valuesAreCounts: true, atLeast: true, replayed: 1}, true},
		{"at-least-once beyond the replays", got{{"a": 5}, {"b": 2}},
			auditRule{onePerTask: true, valuesAreCounts: true, atLeast: true, replayed: 1}, false},
		{"at-least-once never short", got{{"a": 2}, {"b": 2}},
			auditRule{onePerTask: true, valuesAreCounts: true, atLeast: true, replayed: 1}, false},
		{"shared store, sums", got{{"a": 3, "b": 2}}, auditRule{}, true},
	}
	for _, c := range cases {
		err := compare(ref, c.out, c.rule)
		if (err == nil) != c.ok {
			t.Errorf("%s: compare = %v, want ok=%v", c.name, err, c.ok)
		}
	}
}

const pprofSample = `File: heron-bench
Type: cpu
Time: Sep 26, 2026 at 4:00am (UTC)
Duration: 10.13s, Total samples = 18.50s (182.63%)
Showing nodes accounting for 18.50s, 100% of 18.50s total
      flat  flat%   sum%        cum   cum%
     4.00s 21.62% 21.62%      4.10s 22.16%  runtime.futex
     3.50s 18.92% 40.54%      9.00s 48.65%  heron/internal/stmgr.(*shard).processData
     2500ms 13.51% 54.05%     2.60s 14.05%  heron/internal/tuple.PeekDest
     2.00s 10.81% 64.86%      2.00s 10.81%  runtime.mallocgc
     1.50s  8.11% 72.97%      1.50s  8.11%  runtime.scanobject
     1.50s  8.11% 81.08%      3.00s 16.22%  main.(*wcSink).Execute
     1.00s  5.41% 86.49%      1.00s  5.41%  internal/runtime/syscall.Syscall6
     1.00s  5.41% 91.89%      1.00s  5.41%  runtime.mapaccess1_faststr
     0.50s  2.70% 94.59%      0.50s  2.70%  heron/internal/instance.(*spoutCollector).Emit
     0.50s  2.70% 97.30%      0.50s  2.70%  heron/internal/tmaster.(*TMaster).onMetrics
     0.30s  1.62% 98.92%      0.30s  1.62%  heron/internal/network.(*FrameRing).Enqueue
     0.20s  1.08%   100%      0.20s  1.08%  sync.(*Pool).Get[go.shape.*uint8] extra words
         0     0%   100%      0.10s  0.54%  runtime.mstart
`

func TestParsePprofTop(t *testing.T) {
	top, err := parsePprofTop(pprofSample)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(top.total-18.5) > 1e-9 {
		t.Errorf("total = %v, want 18.5", top.total)
	}
	if v := top.flat["heron/internal/tuple.PeekDest"]; math.Abs(v-2.5) > 1e-9 {
		t.Errorf("ms unit: PeekDest = %v, want 2.5", v)
	}
	if _, ok := top.flat["sync.(*Pool).Get[go.shape.*uint8] extra words"]; !ok {
		t.Errorf("function name with spaces was cut: %v", top.flat)
	}
	by, covered := top.shares()
	if math.Abs(covered-1) > 1e-9 {
		t.Errorf("covered = %v, want 1", covered)
	}
	want := map[string]float64{
		"runtime_sched": 4.0, "stmgr": 3.5, "tuple": 2.5, "runtime_gc": 3.5, "user": 1.5,
		"syscall": 1.0, "other": 1.2, "instance": 0.5, "control": 0.5, "network": 0.3,
	}
	var sum float64
	for g, v := range by {
		sum += v
		if math.Abs(v-want[g]/18.5) > 1e-9 {
			t.Errorf("group %s = %.4f, want %.4f", g, v, want[g]/18.5)
		}
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("shares sum to %v", sum)
	}
	for _, g := range cpuGroups {
		delete(want, g)
	}
	if len(want) != 0 {
		t.Errorf("groups missing from cpuGroups: %v", want)
	}
	if _, err := parsePprofTop("no table here"); err == nil {
		t.Error("text without a sample table parsed")
	}
	if _, err := parsePprofTop(strings.Replace(pprofSample, "4.00s 21.62%", "4.00parsecs 21.62%", 1)); err == nil {
		t.Error("unknown unit parsed")
	}
}

func TestCPUGroupOf(t *testing.T) {
	cases := map[string]string{
		"heron/internal/runtime.(*Engine).launchWorker":   "control",
		"heron/internal/extsvc/kafkasim.(*Consumer).Poll": "user",
		"heron/internal/encoding/wire.AppendUvarint":      "tuple",
		"heron/api.(*TopologyBuilder).Build":              "instance",
		"compress/flate.(*decompressor).huffSym":          "user",
		"runtime.gcBgMarkWorker":                          "runtime_gc",
		"runtime.(*mheap).alloc":                          "runtime_gc",
		"runtime.selectgo":                                "runtime_sched",
		"runtime.memmove":                                 "other",
		"syscall.Syscall":                                 "syscall",
		"time.Since":                                      "other",
	}
	for fn, want := range cases {
		if got := cpuGroupOf(fn); got != want {
			t.Errorf("cpuGroupOf(%q) = %s, want %s", fn, got, want)
		}
	}
}

// TestBenchmarkJSONMatchesTheCode holds BENCHMARK.json to the tables the
// program prints from: a metric or workload renamed on one side only would
// otherwise surface as a refused run.
func TestBenchmarkJSONMatchesTheCode(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type metric struct{ Name, Unit string }
	var doc struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []metric `json:"end_to_end"`
		PerLayer  []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Workloads) != len(allWorkloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the code", len(doc.Workloads), len(allWorkloads))
	}
	for i, w := range allWorkloads {
		if doc.Workloads[i].Name != w.name || doc.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q, the code %q", i, doc.Workloads[i].Name, w.name)
		}
	}
	check := func(kind string, listed []metric, code []struct{ name, unit string }) {
		if len(listed) != len(code) {
			t.Errorf("%d %s metrics in BENCHMARK.json, %d in the code", len(listed), kind, len(code))
			return
		}
		for i, m := range code {
			if listed[i].Name != m.name || listed[i].Unit != m.unit {
				t.Errorf("%s metric %d: BENCHMARK.json has %s (%s), the code %s (%s)",
					kind, i, listed[i].Name, listed[i].Unit, m.name, m.unit)
			}
		}
	}
	check("end-to-end", doc.EndToEnd, e2eMetrics)
	check("per-layer", doc.PerLayer, layerMetrics)
}

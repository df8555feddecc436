package workloads

import (
	"fmt"
	"testing"

	"heron/api"
	"heron/internal/extsvc/kafkasim"
	"heron/internal/extsvc/redissim"
)

func TestDictionaryProperties(t *testing.T) {
	d := Dictionary(10_000)
	if len(d) != 10_000 {
		t.Fatalf("len = %d", len(d))
	}
	seen := map[string]bool{}
	for _, w := range d {
		if w == "" {
			t.Fatal("empty word")
		}
		if seen[w] {
			t.Fatalf("duplicate word %q", w)
		}
		seen[w] = true
	}
	// Deterministic across calls.
	d2 := Dictionary(10_000)
	for i := range d {
		if d[i] != d2[i] {
			t.Fatalf("dictionary not deterministic at %d", i)
		}
	}
}

func TestDictionaryFullSize(t *testing.T) {
	if testing.Short() {
		t.Skip("450K dictionary in -short mode")
	}
	d := Dictionary(DictionarySize)
	if len(d) != DictionarySize {
		t.Fatalf("len = %d", len(d))
	}
}

func TestBuildWordCountSpec(t *testing.T) {
	spec, stats, err := BuildWordCount(WordCountOptions{Spouts: 3, Bolts: 5, DictSize: 100, Reliable: true})
	if err != nil {
		t.Fatal(err)
	}
	if stats == nil {
		t.Fatal("nil stats")
	}
	if spec.Topology.Component("word").Parallelism != 3 ||
		spec.Topology.Component("count").Parallelism != 5 {
		t.Error("parallelism wrong")
	}
	if err := spec.Topology.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestParseEvent(t *testing.T) {
	v := EventValue(42, "click", 17)
	user, et, amount, ok := parseEvent(string(v))
	if !ok || user != "u42" || et != "click" || amount != 17 {
		t.Errorf("parseEvent = %q %q %d %v", user, et, amount, ok)
	}
	for _, bad := range []string{"", "nopipes", "a|b", "a|b|notnum"} {
		if _, _, _, ok := parseEvent(bad); ok {
			t.Errorf("parseEvent(%q) accepted", bad)
		}
	}
}

func TestBuildETLSpec(t *testing.T) {
	broker := kafkasim.NewBroker(4)
	redis := redissim.NewServer(2)
	spec, timers, err := BuildETL(ETLOptions{
		Broker: broker, Redis: redis, Spouts: 2, Filters: 2, Aggregators: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if timers == nil {
		t.Fatal("nil timers")
	}
	if len(spec.Topology.Components) != 3 {
		t.Errorf("components = %d", len(spec.Topology.Components))
	}
}

// fakeSpoutCtx lets us drive spout/bolt components without an engine.
type fakeCtx struct{ task, par int32 }

func (f fakeCtx) TopologyName() string            { return "test" }
func (f fakeCtx) ComponentName() string           { return "c" }
func (f fakeCtx) ComponentIndex() int32           { return f.task }
func (f fakeCtx) TaskID() int32                   { return f.task }
func (f fakeCtx) ComponentParallelism(string) int { return int(f.par) }
func (f fakeCtx) Metrics() api.ComponentMetrics   { return nopMetrics{} }

// nopMetrics satisfies api.ComponentMetrics for engine-less tests.
type nopMetrics struct{}

func (nopMetrics) Counter(string) api.MetricCounter     { return nopMetric{} }
func (nopMetrics) Gauge(string) api.MetricGauge         { return nopMetric{} }
func (nopMetrics) Histogram(string) api.MetricHistogram { return nopMetric{} }

type nopMetric struct{}

func (nopMetric) Inc(int64)     {}
func (nopMetric) Set(int64)     {}
func (nopMetric) Observe(int64) {}

type capturingSpoutCollector struct{ emitted [][]any }

func (c *capturingSpoutCollector) Emit(_ string, _ any, values ...any) {
	c.emitted = append(c.emitted, values)
}

func TestKafkaSpoutDrivesFetchTimer(t *testing.T) {
	broker := kafkasim.NewBroker(2)
	broker.Preload(50, func(part, i int) ([]byte, []byte) {
		return []byte(fmt.Sprintf("k%d", i)), EventValue(i, "click", int64(i))
	})
	timers := &CategoryTimers{}
	s := &KafkaSpout{Broker: broker, Timers: timers, PollBatch: 10}
	col := &capturingSpoutCollector{}
	if err := s.Open(fakeCtx{task: 0, par: 1}, col); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 30; i++ {
		if !s.NextTuple() {
			t.Fatal("spout dried up with looping consumer")
		}
	}
	if len(col.emitted) != 30 {
		t.Errorf("emitted = %d", len(col.emitted))
	}
	if timers.FetchNs.Load() == 0 || timers.Events.Load() == 0 {
		t.Error("fetch timer not advanced")
	}
}

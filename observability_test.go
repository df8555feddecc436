package heron

import (
	"encoding/json"
	"io"
	"net/http"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"

	"heron/api"
	"heron/internal/metrics"
)

// obsBolt is a counting bolt that also registers custom metrics through
// the public TopologyContext.Metrics() API, optionally slowing each
// Execute to build spout backlog.
type obsBolt struct {
	table *countTable
	delay time.Duration
	out   api.BoltCollector
	task  int32

	mWords    api.MetricCounter
	mDistinct api.MetricGauge
}

func (b *obsBolt) Prepare(ctx api.TopologyContext, out api.BoltCollector) error {
	b.out = out
	b.task = ctx.TaskID()
	m := ctx.Metrics()
	b.mWords = m.Counter("words-counted")
	b.mDistinct = m.Gauge("distinct-words")
	return nil
}

func (b *obsBolt) Execute(t api.Tuple) error {
	if b.delay > 0 {
		time.Sleep(b.delay)
	}
	b.table.add(t.String(0), b.task)
	b.mWords.Inc(1)
	b.mDistinct.Set(1)
	b.out.Ack(t)
	return nil
}

func (b *obsBolt) Cleanup() error { return nil }

// buildObsTopology wires boundedWordSpout → obsBolt ("word" → "count").
func (f *fixture) buildObsTopology(t *testing.T, spouts, bolts, wordsPerSpout int, reliable bool, delay time.Duration) *api.Spec {
	t.Helper()
	f.table = newCountTable()
	loop := wordsPerSpout < 0
	if loop {
		wordsPerSpout = 10_000
	}
	words := testWords(wordsPerSpout)
	b := api.NewTopologyBuilder("obs-" + t.Name())
	b.SetSpout("word", func() api.Spout {
		return &boundedWordSpout{
			words: words, loop: loop, reliable: reliable,
			emitted: &f.emitted, acked: &f.acked, failed: &f.failed,
		}
	}, spouts).OutputFields("word")
	b.SetBolt("count", func() api.Bolt {
		return &obsBolt{table: f.table, delay: delay}
	}, bolts).FieldsGrouping("word", "", "word")
	spec, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return spec
}

// TestHandleMetricsEndToEnd drives a bounded topology and checks that the
// aggregated Handle.Metrics() view — fed by the Metrics Manager → TMaster
// snapshot pipeline — agrees with what the topology actually processed,
// including the bolt's custom user metrics.
func TestHandleMetricsEndToEnd(t *testing.T) {
	var f fixture
	const spouts, bolts, perSpout = 2, 2, 300
	spec := f.buildObsTopology(t, spouts, bolts, perSpout, true, 0)
	cfg := testConfig(t)
	cfg.AckingEnabled = true
	cfg.MaxSpoutPending = 100
	cfg.MessageTimeout = 5 * time.Second
	cfg.MetricsExportInterval = 25 * time.Millisecond

	h, err := Submit(spec, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer h.Kill()
	if err := h.WaitRunning(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	total := int64(spouts * perSpout)
	waitFor(t, 120*time.Second, "all tuples acked", func() bool {
		return f.acked.Load() >= total
	})
	// The spout is drained, so the bolt-side totals are stable; wait for
	// the export pipeline to catch up with them.
	processed := f.table.total.Load()
	waitFor(t, 10*time.Second, "metrics view to converge", func() bool {
		v := h.Metrics()
		return v.Counter(metrics.MExecuteCount, "count") == processed &&
			v.Counter(metrics.MAckCount, "word") >= total &&
			v.Histogram(metrics.MCompleteLatency, "word").Count >= total
	})

	v := h.Metrics()
	if got := v.Counter(metrics.MExecuteCount, "count"); got != processed || got < total {
		t.Errorf("view execute-count = %d, processed = %d (emitted total %d)", got, processed, total)
	}
	// Per-task breakdown must sum to the component total.
	var perTask int64
	for task := int32(0); task < int32(spouts+bolts); task++ {
		if n, ok := v.TaskCounter(metrics.MExecuteCount, "count", task); ok {
			perTask += n
		}
	}
	if perTask != processed {
		t.Errorf("per-task execute-count sum = %d, want %d", perTask, processed)
	}
	// Execute latency histogram: sampled 1-in-8 per task, non-zero p99.
	lat := v.Histogram(metrics.MExecuteLatency, "count")
	if lat.Count < processed/8 || lat.Count > processed {
		t.Errorf("execute-latency count = %d, want within [%d, %d]", lat.Count, processed/8, processed)
	}
	if p99 := lat.Quantile(0.99); p99 <= 0 {
		t.Errorf("execute-latency p99 = %d, want > 0", p99)
	}
	// Spout-side taxonomy: acks and complete latency.
	if got := v.Counter(metrics.MAckCount, "word"); got < total {
		t.Errorf("view ack-count = %d, want >= %d", got, total)
	}
	if cl := v.Histogram(metrics.MCompleteLatency, "word"); cl.Count < total || cl.Quantile(0.99) <= 0 {
		t.Errorf("complete-latency = %+v", cl)
	}
	// User metrics registered via TopologyContext.Metrics() appear in the
	// same aggregated view, namespaced under "user.".
	if got := v.Counter(metrics.UserPrefix+"words-counted", "count"); got != processed {
		t.Errorf("user words-counted = %d, want %d", got, processed)
	}
	if got := v.Gauge(metrics.UserPrefix+"distinct-words", "count"); got <= 0 {
		t.Errorf("user distinct-words gauge = %d, want > 0", got)
	}
	// Stream Manager metrics ride the same pipeline.
	if got := v.Counter(metrics.MStmgrTuplesIn, metrics.StmgrComponent); got == 0 {
		t.Error("no stmgr tuples-in in view")
	}
	comps := v.Components()
	want := map[string]bool{"word": false, "count": false, metrics.StmgrComponent: false}
	for _, c := range comps {
		if _, ok := want[c]; ok {
			want[c] = true
		}
	}
	for c, seen := range want {
		if !seen {
			t.Errorf("component %q missing from view (have %v)", c, comps)
		}
	}
}

// TestObservabilityHTTP scrapes the embedded HTTP server and checks the
// same counters appear in Prometheus text form with component/task
// labels, and that /topology serves the structured JSON dump.
func TestObservabilityHTTP(t *testing.T) {
	var f fixture
	const spouts, bolts, perSpout = 2, 2, 200
	spec := f.buildObsTopology(t, spouts, bolts, perSpout, false, 0)
	cfg := testConfig(t)
	cfg.MetricsExportInterval = 25 * time.Millisecond
	cfg.HTTPAddr = "127.0.0.1:0"
	cfg.HTTPPprof = true

	h, err := Submit(spec, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer h.Kill()
	addr := h.ObservabilityAddr()
	if addr == "" {
		t.Fatal("no observability address")
	}
	if err := h.WaitRunning(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	total := int64(spouts * perSpout)
	waitFor(t, 120*time.Second, "all tuples counted", func() bool {
		return f.table.total.Load() >= total
	})
	processed := f.table.total.Load()

	get := func(path string) (int, string) {
		resp, err := http.Get("http://" + addr + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(body)
	}

	// /metrics: per-task execute-count series with topology/component/task
	// labels must sum to the processed total once the exporters catch up.
	topo := `topology="` + spec.Topology.Name + `",`
	series := regexp.MustCompile(`(?m)^heron_instance_execute_count\{` + regexp.QuoteMeta(topo) + `component="count",task="(\d+)"\} (\d+)$`)
	var body string
	waitFor(t, 10*time.Second, "prometheus counters to converge", func() bool {
		var code int
		code, body = get("/metrics")
		if code != http.StatusOK {
			return false
		}
		var sum int64
		for _, m := range series.FindAllStringSubmatch(body, -1) {
			n, _ := strconv.ParseInt(m[2], 10, 64)
			sum += n
		}
		return sum == processed
	})
	for _, want := range []string{
		"# TYPE heron_instance_execute_count counter",
		"# TYPE heron_instance_execute_latency summary",
		`heron_user_words_counted{` + topo + `component="count"`,
		`heron_stmgr_tuples_in{` + topo + `component="__stmgr__"`,
		`quantile="0.99"`,
	} {
		if !regexp.MustCompile(regexp.QuoteMeta(want)).MatchString(body) {
			t.Errorf("/metrics missing %q", want)
		}
	}

	// /topology: structured JSON with the same counter.
	code, topoBody := get("/topology")
	if code != http.StatusOK {
		t.Fatalf("/topology status = %d", code)
	}
	var dump struct {
		Topology string `json:"topology"`
		Metrics  struct {
			Counters []struct {
				Name      string `json:"name"`
				Component string `json:"component"`
				Value     int64  `json:"value"`
			} `json:"counters"`
		} `json:"metrics"`
	}
	if err := json.Unmarshal([]byte(topoBody), &dump); err != nil {
		t.Fatalf("/topology decode: %v", err)
	}
	if dump.Topology != spec.Topology.Name {
		t.Errorf("topology = %q, want %q", dump.Topology, spec.Topology.Name)
	}
	var jsonSum int64
	for _, c := range dump.Metrics.Counters {
		if c.Name == metrics.MExecuteCount && c.Component == "count" {
			jsonSum += c.Value
		}
	}
	if jsonSum != processed {
		t.Errorf("/topology execute-count = %d, want %d", jsonSum, processed)
	}

	// /health: the topology's own payload with the control-plane block;
	// an unknown name is a 404, as on /topology.
	code, healthBody := get("/health")
	if code != http.StatusOK || !strings.Contains(healthBody, `"enabled": false`) || !strings.Contains(healthBody, `"control": [`) {
		t.Errorf("/health = %d %s", code, healthBody)
	}
	for _, path := range []string{"/health?name=nope", "/topology?name=nope"} {
		if code, _ := get(path); code != http.StatusNotFound {
			t.Errorf("%s status = %d, want 404", path, code)
		}
	}

	// pprof mounted when enabled.
	if code, _ := get("/debug/pprof/cmdline"); code != http.StatusOK {
		t.Errorf("pprof cmdline status = %d", code)
	}
}

// TestKnobsAreObservable verifies the ISSUE's tuning-observability loop:
// turning engine knobs moves the matching metrics. Cache drain frequency
// drives stmgr.cache-drain-count; max spout pending bounds the
// spout.pending gauge.
func TestKnobsAreObservable(t *testing.T) {
	drains := func(freq time.Duration) int64 {
		var f fixture
		spec := f.buildObsTopology(t, 1, 1, -1, false, 0)
		cfg := testConfig(t)
		cfg.CacheDrainFrequency = freq
		h, err := Submit(spec, cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer h.Kill()
		if err := h.WaitRunning(10 * time.Second); err != nil {
			t.Fatal(err)
		}
		time.Sleep(600 * time.Millisecond)
		return h.SumCounter(metrics.MStmgrCacheDrains)
	}
	fast := drains(2 * time.Millisecond)
	slow := drains(40 * time.Millisecond)
	if fast <= slow || slow == 0 {
		t.Errorf("cache-drain-count: fast freq %d <= slow freq %d", fast, slow)
	}

	maxPending := func(cap int) int64 {
		var f fixture
		// Slow bolt so spouts build real backlog against the pending cap.
		spec := f.buildObsTopology(t, 1, 1, -1, true, 500*time.Microsecond)
		cfg := testConfig(t)
		cfg.AckingEnabled = true
		cfg.MaxSpoutPending = cap
		cfg.MessageTimeout = 10 * time.Second
		cfg.MetricsExportInterval = 20 * time.Millisecond
		h, err := Submit(spec, cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer h.Kill()
		if err := h.WaitRunning(10 * time.Second); err != nil {
			t.Fatal(err)
		}
		var max int64
		deadline := time.Now().Add(2 * time.Second)
		for time.Now().Before(deadline) {
			if p := h.Metrics().Gauge(metrics.MSpoutPending, "word"); p > max {
				max = p
			}
			time.Sleep(10 * time.Millisecond)
		}
		return max
	}
	low := maxPending(3)
	high := maxPending(200)
	if low > 3 {
		t.Errorf("pending gauge exceeded cap: observed %d with MaxSpoutPending 3", low)
	}
	if high <= 3 {
		t.Errorf("pending gauge = %d with MaxSpoutPending 200, want > 3", high)
	}
}

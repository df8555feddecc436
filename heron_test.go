package heron

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"heron/api"
	"heron/internal/metrics"
)

// boundedWordSpout emits each word of a fixed list exactly once (plus
// replays of failed tuples when reliable), then idles.
type boundedWordSpout struct {
	words    []string
	next     int
	loop     bool // wrap around instead of drying up
	reliable bool
	out      api.SpoutCollector
	emitted  *atomic.Int64
	acked    *atomic.Int64
	failed   *atomic.Int64
	replay   []string
}

func (s *boundedWordSpout) Open(_ api.TopologyContext, out api.SpoutCollector) error {
	s.out = out
	return nil
}

func (s *boundedWordSpout) NextTuple() bool {
	var w string
	switch {
	case len(s.replay) > 0:
		w = s.replay[len(s.replay)-1]
		s.replay = s.replay[:len(s.replay)-1]
	case s.next < len(s.words):
		w = s.words[s.next]
		s.next++
		if s.loop && s.next == len(s.words) {
			s.next = 0
		}
	default:
		return false
	}
	var id any
	if s.reliable {
		id = w
	}
	s.out.Emit("", id, w)
	s.emitted.Add(1)
	return true
}

func (s *boundedWordSpout) Ack(any) { s.acked.Add(1) }

func (s *boundedWordSpout) Fail(msgID any) {
	s.failed.Add(1)
	s.replay = append(s.replay, msgID.(string))
}

func (s *boundedWordSpout) Close() error { return nil }

// countBolt counts words into a shared table, acking each input.
type countBolt struct {
	table *countTable
	out   api.BoltCollector
	task  int32
}

type countTable struct {
	mu sync.Mutex
	// counts[word][task] → n: lets tests verify fields-grouping placement.
	counts map[string]map[int32]int64
	total  atomic.Int64
}

func newCountTable() *countTable { return &countTable{counts: map[string]map[int32]int64{}} }

func (t *countTable) add(word string, task int32) {
	t.mu.Lock()
	m := t.counts[word]
	if m == nil {
		m = map[int32]int64{}
		t.counts[word] = m
	}
	m[task]++
	t.mu.Unlock()
	t.total.Add(1)
}

func (b *countBolt) Prepare(ctx api.TopologyContext, out api.BoltCollector) error {
	b.out = out
	b.task = ctx.TaskID()
	return nil
}

func (b *countBolt) Execute(t api.Tuple) error {
	b.table.add(t.String(0), b.task)
	b.out.Ack(t)
	return nil
}

func (b *countBolt) Cleanup() error { return nil }

func testWords(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("word-%03d", i%97)
	}
	return out
}

type fixture struct {
	emitted, acked, failed atomic.Int64
	table                  *countTable
}

// buildWordCount assembles the paper's Section VI-A topology at the given
// parallelism with a bounded input of n words per spout; a negative n
// gives an endless (looping) source.
func (f *fixture) buildWordCount(t *testing.T, spouts, bolts, wordsPerSpout int, reliable bool) *api.Spec {
	t.Helper()
	f.table = newCountTable()
	loop := wordsPerSpout < 0
	if loop {
		wordsPerSpout = 10_000
	}
	words := testWords(wordsPerSpout) // shared: instances only read it
	b := api.NewTopologyBuilder("wc-" + t.Name())
	b.SetSpout("word", func() api.Spout {
		return &boundedWordSpout{
			words: words, loop: loop, reliable: reliable,
			emitted: &f.emitted, acked: &f.acked, failed: &f.failed,
		}
	}, spouts).OutputFields("word")
	b.SetBolt("count", func() api.Bolt {
		return &countBolt{table: f.table}
	}, bolts).FieldsGrouping("word", "", "word")
	spec, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return spec
}

// testConfig is a three-container config on a deployment of its own. The
// test fails if a session on its World is still open when it ends.
func testConfig(t *testing.T) *Config {
	t.Helper()
	cfg := NewConfig()
	cfg.NumContainers = 3
	t.Cleanup(func() {
		if err := cfg.World.Close(); err != nil {
			t.Error(err)
		}
	})
	return cfg
}

func waitFor(t *testing.T, timeout time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timeout waiting for %s", what)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestWordCountEndToEndWithAcks(t *testing.T) {
	t.Parallel()
	var f fixture
	const spouts, bolts, perSpout = 3, 4, 500
	spec := f.buildWordCount(t, spouts, bolts, perSpout, true)
	cfg := testConfig(t)
	cfg.AckingEnabled = true
	cfg.MaxSpoutPending = 100
	cfg.MessageTimeout = 5 * time.Second

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
	if got := f.table.total.Load(); got < total {
		t.Errorf("bolt executed %d < %d emitted", got, total)
	}
	// Fields grouping: each word must live on exactly one task.
	f.table.mu.Lock()
	defer f.table.mu.Unlock()
	for word, tasks := range f.table.counts {
		if len(tasks) != 1 {
			t.Errorf("word %q counted on %d tasks (fields grouping violated)", word, len(tasks))
		}
	}
	// Spout-side accounting.
	if f.acked.Load()+f.failed.Load() < f.emitted.Load() {
		t.Errorf("acked %d + failed %d < emitted %d", f.acked.Load(), f.failed.Load(), f.emitted.Load())
	}
}

func TestWordCountEndToEndWithoutAcks(t *testing.T) {
	t.Parallel()
	var f fixture
	const spouts, bolts, perSpout = 2, 2, 1000
	spec := f.buildWordCount(t, spouts, bolts, perSpout, false)
	cfg := testConfig(t)

	h, err := Submit(spec, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer h.Kill()
	if err := h.WaitRunning(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	total := int64(spouts * perSpout)
	// Without acks delivery is best-effort, but in a healthy run nothing
	// is dropped once the plan is installed everywhere.
	waitFor(t, 120*time.Second, "all tuples counted", func() bool {
		return f.table.total.Load() >= total
	})
	if got := h.SumCounter(metrics.MExecuteCount); got < total {
		t.Errorf("metrics executed = %d < %d", got, total)
	}
}

func TestWordCountNaiveCodecStillCorrect(t *testing.T) {
	t.Parallel()
	// The unoptimized data plane must change cost, not semantics.
	var f fixture
	spec := f.buildWordCount(t, 2, 2, 300, true)
	cfg := testConfig(t)
	cfg.AckingEnabled = true
	cfg.MaxSpoutPending = 50
	cfg.Codec = "naive"
	cfg.StreamManagerOptimized = false
	cfg.MessageTimeout = 5 * time.Second

	h, err := Submit(spec, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer h.Kill()
	if err := h.WaitRunning(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 120*time.Second, "all tuples acked", func() bool {
		return f.acked.Load() >= 2*300
	})
}

func TestSubmitErrors(t *testing.T) {
	t.Parallel()
	if _, err := Submit(nil, nil); err == nil {
		t.Error("nil spec accepted")
	}
	var f fixture
	spec := f.buildWordCount(t, 1, 1, 10, false)
	cfg := testConfig(t)
	cfg.SchedulerName = "no-such-scheduler"
	if _, err := Submit(spec, cfg); err == nil {
		t.Error("unknown scheduler accepted")
	}
	cfg2 := testConfig(t)
	cfg2.MaxSpoutPending = 5 // without acking: invalid
	if _, err := Submit(spec, cfg2); err == nil {
		t.Error("invalid config accepted")
	}
}

func TestDuplicateSubmitRejected(t *testing.T) {
	t.Parallel()
	var f fixture
	spec := f.buildWordCount(t, 1, 1, 10, false)
	cfg := testConfig(t)
	h, err := Submit(spec, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer h.Kill()
	var f2 fixture
	spec2 := f2.buildWordCount(t, 1, 1, 10, false)
	if _, err := Submit(spec2, cfg); err == nil {
		t.Error("duplicate topology accepted")
	}
}

// TestConfigsAreSeparateDeployments pins what a Config's World means: two
// NewConfigs with the same StateRoot are two deployments, so each runs a
// topology of the same name, while a Clone is the same deployment and is
// refused the name.
func TestConfigsAreSeparateDeployments(t *testing.T) {
	t.Parallel()
	first, second := testConfig(t), testConfig(t)
	if first.StateRoot != second.StateRoot {
		t.Fatalf("StateRoots differ: %q, %q", first.StateRoot, second.StateRoot)
	}
	for _, cfg := range []*Config{first, second} {
		var f fixture
		h, err := Submit(f.buildWordCount(t, 1, 1, 10, false), cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer h.Kill()
	}
	var f fixture
	if _, err := Submit(f.buildWordCount(t, 1, 1, 10, false), first.Clone()); !errors.Is(err, ErrDuplicateTopology) {
		t.Fatalf("Submit on a Clone = %v, want ErrDuplicateTopology", err)
	}
}

func TestTopologyScalingEndToEnd(t *testing.T) {
	t.Parallel()
	// Scale the count bolt up mid-run and verify the new tasks receive
	// tuples (fields grouping re-partitions over 6 tasks).
	var f fixture
	spec := f.buildWordCount(t, 2, 2, -1, false)
	cfg := testConfig(t)

	h, err := Submit(spec, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer h.Kill()
	if err := h.WaitRunning(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 10*time.Second, "initial flow", func() bool { return f.table.total.Load() > 1000 })

	if err := h.Scale(map[string]int{"count": 6}); err != nil {
		t.Fatal(err)
	}
	plan, err := h.PackingPlan()
	if err != nil {
		t.Fatal(err)
	}
	if got := plan.ComponentCounts()["count"]; got != 6 {
		t.Fatalf("plan has %d count instances, want 6", got)
	}
	// With 97 distinct words and 6 tasks, every task should eventually see
	// traffic.
	waitFor(t, 20*time.Second, "all 6 bolt tasks active", func() bool {
		f.table.mu.Lock()
		defer f.table.mu.Unlock()
		active := map[int32]bool{}
		for _, tasks := range f.table.counts {
			for task := range tasks {
				active[task] = true
			}
		}
		return len(active) >= 6
	})
}

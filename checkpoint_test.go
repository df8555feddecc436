package heron

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"heron/api"
	"heron/internal/checkpoint"
	"heron/internal/cluster"
	"heron/internal/core"
	"heron/internal/metrics"
	"heron/internal/scheduler"
)

// ckptHarness tracks the LIVE spout and bolt instances (relaunches
// replace earlier generations) so the test can compare, at quiescence,
// what the spouts claim to have emitted against what the bolts counted.
type ckptHarness struct {
	mu     sync.Mutex
	spouts map[int32]*seqSpout
	bolts  map[int32]*ckptCountBolt

	stop     atomic.Bool
	executed atomic.Int64
}

// seqSpout deterministically emits dict[seq % len(dict)] and checkpoints
// seq: after a restore it resumes from the checkpointed position, so the
// words emitted over a task's lifetime are a pure function of its final
// seq value.
type seqSpout struct {
	h    *ckptHarness
	dict []string
	out  api.SpoutCollector
	seq  atomic.Int64
}

func (s *seqSpout) Open(ctx api.TopologyContext, out api.SpoutCollector) error {
	s.out = out
	s.h.mu.Lock()
	s.h.spouts[ctx.TaskID()] = s
	s.h.mu.Unlock()
	return nil
}

func (s *seqSpout) NextTuple() bool {
	if s.h.stop.Load() {
		return false
	}
	seq := s.seq.Load()
	s.out.Emit("", nil, s.dict[seq%int64(len(s.dict))])
	s.seq.Store(seq + 1)
	// Pace the source: an unthrottled spout keeps every outbox at its
	// high-water mark, and a marker queued FIFO behind that backlog can
	// take longer than the checkpoint interval to drain — every round
	// would be abandoned before its barrier completes.
	if seq%64 == 63 {
		time.Sleep(time.Millisecond)
	}
	return true
}

func (s *seqSpout) Ack(any)      {}
func (s *seqSpout) Fail(any)     {}
func (s *seqSpout) Close() error { return nil }

func (s *seqSpout) SaveState(st api.State) error {
	st.Set("seq", strconv.AppendInt(nil, s.seq.Load(), 10))
	return nil
}

func (s *seqSpout) RestoreState(st api.State) error {
	n, err := strconv.ParseInt(string(st.Get("seq")), 10, 64)
	if err != nil {
		return err
	}
	s.seq.Store(n)
	return nil
}

// ckptCountBolt is a per-instance stateful word counter.
type ckptCountBolt struct {
	h      *ckptHarness
	mu     sync.Mutex
	counts map[string]int64
}

func (b *ckptCountBolt) Prepare(ctx api.TopologyContext, _ api.BoltCollector) error {
	b.counts = map[string]int64{}
	b.h.mu.Lock()
	b.h.bolts[ctx.TaskID()] = b
	b.h.mu.Unlock()
	return nil
}

func (b *ckptCountBolt) Execute(t api.Tuple) error {
	b.mu.Lock()
	b.counts[t.String(0)]++
	b.mu.Unlock()
	b.h.executed.Add(1)
	return nil
}

func (b *ckptCountBolt) Cleanup() error { return nil }

func (b *ckptCountBolt) SaveState(s api.State) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	for w, n := range b.counts {
		s.Set(w, strconv.AppendInt(nil, n, 10))
	}
	return nil
}

func (b *ckptCountBolt) RestoreState(s api.State) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	var err error
	s.Range(func(k string, v []byte) bool {
		var n int64
		n, err = strconv.ParseInt(string(v), 10, 64)
		if err != nil {
			return false
		}
		b.counts[k] = n
		return true
	})
	return err
}

// runCheckpointRecovery is the chaos test of the checkpoint subsystem:
// run a stateful WordCount with a checkpoint interval, kill a worker
// container mid-stream, let the scheduler quiesce-and-relaunch the
// workers from the last committed checkpoint, and then verify the bolts'
// final counts EXACTLY match the spouts' deterministic emission history —
// no lost counts, no duplicates (checkpoint-based effectively-once).
func runCheckpointRecovery(t *testing.T, backendName string) {
	runCheckpointRecoveryWith(t, ckptRun{backend: backendName, label: backendName})
}

// ckptRun selects one variant of the checkpoint recovery test.
type ckptRun struct {
	backend string
	// label keeps the state roots of variants sharing a backend apart.
	label string
	// scheduler defaults to "yarn"; "local" runs without a cluster.
	scheduler string
	// restart disturbs the topology with Handle.Restart(1) instead of a
	// container failure injected into the cluster.
	restart bool
}

// runCheckpointRecoveryWith is runCheckpointRecovery with the scheduler
// and the fault chosen by run.
func runCheckpointRecoveryWith(t *testing.T, run ckptRun) {
	phase := time.Now()
	var phases []string
	lap := func(name string) {
		phases = append(phases, fmt.Sprintf("%s %v", name, time.Since(phase).Round(time.Millisecond)))
		phase = time.Now()
	}
	const dictSize = 50
	dict := make([]string, dictSize)
	for i := range dict {
		dict[i] = fmt.Sprintf("w%02d", i)
	}
	h := &ckptHarness{spouts: map[int32]*seqSpout{}, bolts: map[int32]*ckptCountBolt{}}

	label, backendName := run.label, run.backend
	if run.scheduler == "" {
		run.scheduler = "yarn"
	}
	b := api.NewTopologyBuilder("ckpt-" + label)
	b.SetSpout("word", func() api.Spout {
		return &seqSpout{h: h, dict: dict}
	}, 2).OutputFields("word")
	b.SetBolt("count", func() api.Bolt {
		return &ckptCountBolt{h: h}
	}, 2).FieldsGrouping("word", "", "word")
	spec, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}

	cfg := testConfig(t)
	cfg.SchedulerName = run.scheduler
	cfg.CheckpointInterval = 200 * time.Millisecond
	cfg.StateBackend = backendName
	if backendName == "localfs" {
		cfg.Extra = map[string]string{"checkpoint.root": t.TempDir()}
	}
	var cl *cluster.Cluster
	if run.scheduler != "local" {
		cl = cluster.New("ckpt-"+label+"-sim", 4, core.Resource{CPU: 32, RAMMB: 32768, DiskMB: 65536})
		cfg.Framework = cl
	}

	handle, err := Submit(spec, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer handle.Kill()
	if err := handle.WaitRunning(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	lap("submit")

	// The test's own backend session polls the globally-committed epoch.
	poll, err := checkpoint.New(backendName)
	if err != nil {
		t.Fatal(err)
	}
	if err := poll.Initialize(cfg); err != nil {
		t.Fatal(err)
	}
	defer poll.Close()
	latest := func() int64 {
		id, _ := poll.LatestCommitted(handle.Name())
		return id
	}

	// The restart needs a restore point, not a tuple count: a count of the
	// paced source's output takes ten times longer while a saturating test
	// shares the CPU.
	waitFor(t, 15*time.Second, "first committed checkpoint", func() bool {
		return latest() > 0
	})
	lap("first commit")
	committedBefore := latest()

	// Kill or restart worker container 1. Either way the scheduler must
	// quiesce every worker and relaunch all of them from the last
	// committed checkpoint. A restart relaunches before it returns.
	if run.restart {
		if err := handle.Restart(1); err != nil {
			t.Fatal(err)
		}
	} else {
		if err := cl.InjectFailure(handle.Name(), 1); err != nil {
			t.Fatal(err)
		}
		for _, id := range []int32{1, 2, 3} {
			id := id
			waitFor(t, 15*time.Second, fmt.Sprintf("container %d relaunched", id), func() bool {
				return cl.Allocated(handle.Name(), id)
			})
		}
	}
	lap("restart")
	waitFor(t, 15*time.Second, "state restored", func() bool {
		return handle.SumCounter(metrics.MRestoreCount) > 0
	})
	lap("restore")
	// Tuples must flow again, and checkpointing itself must have survived
	// the failure.
	base := h.executed.Load()
	waitFor(t, 15*time.Second, "post-recovery progress and commit", func() bool {
		return h.executed.Load() > base && latest() > committedBefore
	})
	lap("commit")

	// Stop the sources and let the pipeline drain.
	h.stop.Store(true)
	quiet, lastN := time.Now(), h.executed.Load()
	waitFor(t, 30*time.Second, "pipeline quiescence", func() bool {
		if n := h.executed.Load(); n != lastN {
			lastN, quiet = n, time.Now()
			return false
		}
		return time.Since(quiet) > 500*time.Millisecond
	})
	lap("quiescence")
	t.Logf("recovery phases: %s", strings.Join(phases, ", "))

	// Exact accounting: every word's final count must equal its number of
	// occurrences in [0, seq) across the live spouts. A lost tuple makes a
	// count too low; a replayed/duplicated one makes it too high.
	h.mu.Lock()
	spouts := make([]*seqSpout, 0, len(h.spouts))
	for _, s := range h.spouts {
		spouts = append(spouts, s)
	}
	bolts := make([]*ckptCountBolt, 0, len(h.bolts))
	for _, cb := range h.bolts {
		bolts = append(bolts, cb)
	}
	h.mu.Unlock()
	if len(spouts) != 2 || len(bolts) != 2 {
		t.Fatalf("live instances: %d spouts, %d bolts", len(spouts), len(bolts))
	}
	expected := map[string]int64{}
	for _, s := range spouts {
		seq := s.seq.Load()
		for i, w := range dict {
			expected[w] += seq / dictSize
			if int64(i) < seq%dictSize {
				expected[w]++
			}
		}
	}
	actual := map[string]int64{}
	for _, cb := range bolts {
		cb.mu.Lock()
		for w, n := range cb.counts {
			actual[w] += n
		}
		cb.mu.Unlock()
	}
	for _, w := range dict {
		if actual[w] != expected[w] {
			t.Errorf("word %q: counted %d, emitted %d (Δ%+d)",
				w, actual[w], expected[w], actual[w]-expected[w])
		}
	}
}

func TestCheckpointRecoveryMemory(t *testing.T) {
	t.Parallel()
	runCheckpointRecovery(t, "memory")
}

// TestCheckpointRecoverySlurmFailure kills a worker under slurm, whose
// relaunches stay inside the job's node allocation: every worker must
// still roll back to the same checkpoint.
func TestCheckpointRecoverySlurmFailure(t *testing.T) {
	t.Parallel()
	runCheckpointRecoveryWith(t, ckptRun{backend: "memory", label: "slurm-fail", scheduler: "slurm"})
}

// TestCheckpointRecoveryWorkerRestart restarts one worker through the
// Handle: a restart is a relaunch like a failure, so it must roll every
// worker back too, on every scheduler that accepts checkpointing.
func TestCheckpointRecoveryWorkerRestart(t *testing.T) {
	t.Parallel()
	for _, sched := range []string{"local", "yarn", "mesos"} {
		t.Run(sched, func(t *testing.T) {
			t.Parallel()
			runCheckpointRecoveryWith(t, ckptRun{backend: "memory", label: sched + "-restart", scheduler: sched, restart: true})
		})
	}
}

// TestCheckpointedSubmitRejectsStatelessScheduler: Aurora restarts a
// failed container on its own, from whatever checkpoint it finds, while
// the others keep running — so it refuses checkpointed topologies.
func TestCheckpointedSubmitRejectsStatelessScheduler(t *testing.T) {
	t.Parallel()
	var f fixture
	spec := f.buildWordCount(t, 1, 1, -1, false)
	cfg := testConfig(t)
	cfg.SchedulerName = "aurora"
	cfg.CheckpointInterval = 200 * time.Millisecond
	cfg.Framework = cluster.New("ckpt-aurora-sim", 2, core.Resource{CPU: 32, RAMMB: 32768, DiskMB: 65536})
	h, err := Submit(spec, cfg)
	if err == nil {
		h.Kill()
	}
	if !errors.Is(err, scheduler.ErrStateless) {
		t.Fatalf("Submit = %v, want ErrStateless", err)
	}
}
func TestCheckpointRecoveryLocalFS(t *testing.T) {
	t.Parallel()
	runCheckpointRecovery(t, "localfs")
}

func TestCheckpointRecoveryRedis(t *testing.T) {
	t.Parallel()
	runCheckpointRecovery(t, "redis")
}

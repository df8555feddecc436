package instance

import (
	"strings"
	"sync"
	"testing"
	"time"

	"heron/api"
	"heron/internal/checkpoint"
	"heron/internal/core"
	"heron/internal/ctrl"
	"heron/internal/metrics"
	"heron/internal/network"
	"heron/internal/tuple"
)

// multiInputPlan is planPayload with spout parallelism 2, so bolts have
// two upstream channels to align: spout tasks 0,1 → bolt tasks 2,3.
func multiInputPlan(epoch int64) *ctrl.PlanPayload {
	topo := &core.Topology{
		Name: "t",
		Components: []core.ComponentSpec{
			{Name: "s", Kind: core.KindSpout, Parallelism: 2,
				Outputs: map[string][]string{"default": {"word"}}},
			{Name: "b", Kind: core.KindBolt, Parallelism: 2,
				Inputs: []core.InputSpec{{Component: "s", Grouping: core.GroupShuffle}}},
		},
	}
	req := core.Resource{CPU: 1, RAMMB: 128, DiskMB: 128}
	plan := &core.PackingPlan{Topology: "t", Containers: []core.ContainerPlan{
		{ID: 1, Required: core.Resource{CPU: 4, RAMMB: 512, DiskMB: 512},
			Instances: []core.InstancePlacement{
				{ID: core.InstanceID{Component: "s", ComponentIndex: 0, TaskID: 0}, Resources: req},
				{ID: core.InstanceID{Component: "s", ComponentIndex: 1, TaskID: 1}, Resources: req},
				{ID: core.InstanceID{Component: "b", ComponentIndex: 0, TaskID: 2}, Resources: req},
				{ID: core.InstanceID{Component: "b", ComponentIndex: 1, TaskID: 3}, Resources: req},
			}},
	}}
	return &ctrl.PlanPayload{Epoch: epoch, Topology: topo, Packing: plan,
		Stmgrs: map[int32]string{1: "x"}}
}

func (s *stmgrSim) sendPayload(t *testing.T, p *ctrl.PlanPayload) {
	t.Helper()
	raw, err := ctrl.Encode(&ctrl.Message{Op: ctrl.OpPlan, Topology: "t", Plan: p})
	if err != nil {
		t.Fatal(err)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, c := range s.conns {
		if err := c.Send(network.MsgControl, raw); err != nil {
			t.Fatal(err)
		}
	}
}

func newTestBackend(t *testing.T) checkpoint.Backend {
	t.Helper()
	cfg := core.NewConfig()
	b, err := checkpoint.New("memory")
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Initialize(cfg); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = b.Close() })
	return b
}

// statefulBolt records execution order and checkpoints the words seen so
// far as one comma-joined value.
type statefulBolt struct {
	mu    sync.Mutex
	words []string
}

func (b *statefulBolt) Prepare(api.TopologyContext, api.BoltCollector) error { return nil }
func (b *statefulBolt) Cleanup() error                                       { return nil }

func (b *statefulBolt) Execute(t api.Tuple) error {
	b.mu.Lock()
	b.words = append(b.words, t.String(0))
	b.mu.Unlock()
	return nil
}

func (b *statefulBolt) SaveState(s api.State) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	s.Set("words", []byte(strings.Join(b.words, ",")))
	return nil
}

func (b *statefulBolt) RestoreState(s api.State) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	if v := s.Get("words"); len(v) > 0 {
		b.words = strings.Split(string(v), ",")
	}
	return nil
}

func (b *statefulBolt) snapshot() []string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return append([]string(nil), b.words...)
}

// startCkptBolt boots bolt task `task` wired for checkpointing and waits
// for its plan.
func startCkptBolt(t *testing.T, sim *stmgrSim, backend checkpoint.Backend, bolt api.Bolt, task int32, restore int64, reg *metrics.Registry) *Instance {
	t.Helper()
	inst, err := New(Options{
		Topology:          "t",
		ID:                core.InstanceID{Component: "b", ComponentIndex: task - 2, TaskID: task},
		Kind:              core.KindBolt,
		Bolt:              bolt,
		Cfg:               core.NewConfig(),
		StmgrAddr:         sim.listener.Addr(),
		Registry:          reg,
		Checkpoint:        backend,
		RestoreCheckpoint: restore,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(inst.Stop)
	sim.waitRegistered(t, 1)
	sim.sendPayload(t, multiInputPlan(1))
	deadline := time.Now().Add(5 * time.Second)
	for inst.plan.Load() == nil {
		if time.Now().After(deadline) {
			t.Fatal("plan not applied")
		}
		time.Sleep(time.Millisecond)
	}
	return inst
}

func (s *stmgrSim) conn(t *testing.T) network.Conn {
	t.Helper()
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.conns) == 0 {
		t.Fatal("no instance connection")
	}
	return s.conns[0]
}

// dataFrame builds a single-tuple frame for dest carrying word, stamped
// with the sending task.
func dataFrame(src, dest int32, word string) []byte {
	enc := tuple.FastCodec{}.EncodeData(nil, &tuple.DataTuple{
		DestTask: dest, SrcTask: src, StreamID: 0, Values: tuple.Values{word}})
	frame := tuple.AppendFrameHeader(nil, dest, 1)
	return tuple.AppendFrameEntry(frame, enc)
}

func waitWords(t *testing.T, b *statefulBolt, want ...string) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		got := b.snapshot()
		if len(got) == len(want) {
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("execution order = %v, want %v", got, want)
				}
			}
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("executed %v, want %v", got, want)
		}
		time.Sleep(time.Millisecond)
	}
}

// waitSavedAck waits for the OpCheckpointSaved control message the
// instance sends its Stream Manager after persisting checkpoint id.
func (s *stmgrSim) waitSavedAck(t *testing.T, task int32, id int64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		select {
		case f := <-s.frames:
			if f.kind != network.MsgControl {
				continue
			}
			m, err := ctrl.Decode(f.data)
			if err != nil || m.Op != ctrl.OpCheckpointSaved {
				continue
			}
			if m.TaskID == task && m.CheckpointID == id {
				return
			}
		default:
			if time.Now().After(deadline) {
				t.Fatalf("no checkpoint-saved ack for task %d id %d", task, id)
			}
			time.Sleep(time.Millisecond)
		}
	}
}

// loadWords reads the committed word list out of a persisted snapshot.
func loadWords(t *testing.T, backend checkpoint.Backend, id int64, task int32) []string {
	t.Helper()
	data, err := backend.Load("t", id, task)
	if err != nil {
		t.Fatalf("load checkpoint %d/%d: %v", id, task, err)
	}
	st, err := checkpoint.DecodeState(data)
	if err != nil {
		t.Fatal(err)
	}
	v := st.Get("words")
	if len(v) == 0 {
		return nil
	}
	return strings.Split(string(v), ",")
}

// TestBoltBarrierAlignment drives the aligned-marker protocol on a
// two-input bolt: after channel 0's marker arrives, channel 0's tuples
// are post-barrier (held) while channel 1's keep executing; the snapshot
// taken when the barrier completes contains exactly the pre-barrier
// tuples, and the held ones execute afterwards.
func TestBoltBarrierAlignment(t *testing.T) {
	sim := newStmgrSim(t)
	backend := newTestBackend(t)
	bolt := &statefulBolt{}
	startCkptBolt(t, sim, backend, bolt, 2, 0, nil)
	conn := sim.conn(t)

	send := func(kind network.MsgKind, payload []byte) {
		t.Helper()
		if err := conn.Send(kind, payload); err != nil {
			t.Fatal(err)
		}
	}
	send(network.MsgData, dataFrame(0, 2, "pre0"))
	send(network.MsgMarker, tuple.AppendMarker(nil, 1, 0, 2))
	send(network.MsgData, dataFrame(0, 2, "post0")) // channel 0 is marked: held
	send(network.MsgData, dataFrame(1, 2, "pre1"))  // channel 1 is not: executes
	send(network.MsgMarker, tuple.AppendMarker(nil, 1, 1, 2))

	waitWords(t, bolt, "pre0", "pre1", "post0")
	sim.waitSavedAck(t, 2, 1)

	// The snapshot must capture the pre-barrier world only: post0 arrived
	// after channel 0's marker, so it is not in checkpoint 1.
	got := loadWords(t, backend, 1, 2)
	if len(got) != 2 || got[0] != "pre0" || got[1] != "pre1" {
		t.Fatalf("checkpoint 1 state = %v, want [pre0 pre1]", got)
	}
}

// TestBoltBarrierSuperseded: a marker for a newer checkpoint arriving
// mid-alignment abandons the stale barrier — its held tuples become
// pre-barrier work for the new checkpoint and execute before it saves.
func TestBoltBarrierSuperseded(t *testing.T) {
	sim := newStmgrSim(t)
	backend := newTestBackend(t)
	bolt := &statefulBolt{}
	startCkptBolt(t, sim, backend, bolt, 2, 0, nil)
	conn := sim.conn(t)

	send := func(kind network.MsgKind, payload []byte) {
		t.Helper()
		if err := conn.Send(kind, payload); err != nil {
			t.Fatal(err)
		}
	}
	send(network.MsgMarker, tuple.AppendMarker(nil, 1, 0, 2))
	send(network.MsgData, dataFrame(0, 2, "held1")) // held for checkpoint 1
	// Checkpoint 1 never completes (task 1's marker is lost); checkpoint 2
	// begins.
	send(network.MsgMarker, tuple.AppendMarker(nil, 2, 0, 2))
	send(network.MsgMarker, tuple.AppendMarker(nil, 2, 1, 2))

	waitWords(t, bolt, "held1")
	sim.waitSavedAck(t, 2, 2)
	got := loadWords(t, backend, 2, 2)
	if len(got) != 1 || got[0] != "held1" {
		t.Fatalf("checkpoint 2 state = %v, want [held1]", got)
	}
	if _, err := backend.Load("t", 1, 2); err == nil {
		t.Fatal("abandoned checkpoint 1 has a snapshot")
	}
}

// TestBoltStaleMarkerIgnored: markers at or below the last completed
// checkpoint id must not open a barrier (they are re-broadcasts or
// leftovers of an abandoned attempt).
func TestBoltStaleMarkerIgnored(t *testing.T) {
	sim := newStmgrSim(t)
	backend := newTestBackend(t)
	bolt := &statefulBolt{}
	inst := startCkptBolt(t, sim, backend, bolt, 2, 0, nil)
	conn := sim.conn(t)

	for _, src := range []int32{0, 1} {
		if err := conn.Send(network.MsgMarker, tuple.AppendMarker(nil, 1, src, 2)); err != nil {
			t.Fatal(err)
		}
	}
	sim.waitSavedAck(t, 2, 1)
	// Replay checkpoint 1's markers, then send data: if a barrier had
	// (wrongly) opened, the tuple from the marked channel would be held
	// and never execute.
	if err := conn.Send(network.MsgMarker, tuple.AppendMarker(nil, 1, 0, 2)); err != nil {
		t.Fatal(err)
	}
	if err := conn.Send(network.MsgData, dataFrame(0, 2, "after")); err != nil {
		t.Fatal(err)
	}
	waitWords(t, bolt, "after")
	if inst.bar != nil {
		t.Fatal("stale marker opened a barrier")
	}
}

// TestMaybeRestore: a bolt launched with a restore checkpoint rebuilds
// its state before processing input and bumps the restore counter; stale
// in-flight markers at or below the restore id are ignored afterwards.
func TestMaybeRestore(t *testing.T) {
	sim := newStmgrSim(t)
	backend := newTestBackend(t)
	st := checkpoint.NewMapState()
	st.Set("words", []byte("was,here"))
	if err := backend.Save("t", 3, 2, checkpoint.EncodeState(st)); err != nil {
		t.Fatal(err)
	}
	if err := backend.Commit("t", 3); err != nil {
		t.Fatal(err)
	}

	reg := metrics.NewRegistry()
	bolt := &statefulBolt{}
	startCkptBolt(t, sim, backend, bolt, 2, 3, reg)
	conn := sim.conn(t)
	if err := conn.Send(network.MsgData, dataFrame(0, 2, "new")); err != nil {
		t.Fatal(err)
	}
	waitWords(t, bolt, "was", "here", "new")

	snap := reg.Snapshot(1)
	var restores int64
	for _, c := range snap.Counters {
		if c.Name == metrics.MRestoreCount {
			restores += c.Value
		}
	}
	if restores != 1 {
		t.Fatalf("restore.count = %d, want 1", restores)
	}
}

// statefulSpout checkpoints a sequence counter.
type statefulSpout struct {
	testSpout
	seq string
}

func (s *statefulSpout) SaveState(st api.State) error {
	st.Set("seq", []byte(s.seq))
	return nil
}

func (s *statefulSpout) RestoreState(st api.State) error {
	s.seq = string(st.Get("seq"))
	return nil
}

// TestSpoutCheckpointForwardsMarkers: a trigger marker at a spout
// snapshots it, forwards one marker per downstream task behind the
// flushed output, acks the coordinator — and does all of it exactly once
// per checkpoint id.
func TestSpoutCheckpointForwardsMarkers(t *testing.T) {
	sim := newStmgrSim(t)
	backend := newTestBackend(t)
	sp := &statefulSpout{seq: "42"}
	inst, err := New(Options{
		Topology:   "t",
		ID:         core.InstanceID{Component: "s", ComponentIndex: 0, TaskID: 0},
		Kind:       core.KindSpout,
		Spout:      sp,
		Cfg:        core.NewConfig(),
		StmgrAddr:  sim.listener.Addr(),
		Checkpoint: backend,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(inst.Stop)
	sim.waitRegistered(t, 1)
	sim.sendPayload(t, multiInputPlan(1))
	deadline := time.Now().Add(5 * time.Second)
	for inst.plan.Load() == nil {
		if time.Now().After(deadline) {
			t.Fatal("plan not applied")
		}
		time.Sleep(time.Millisecond)
	}
	conn := sim.conn(t)

	// The stmgr-injected trigger uses src −1.
	if err := conn.Send(network.MsgMarker, tuple.AppendMarker(nil, 1, -1, 0)); err != nil {
		t.Fatal(err)
	}
	// Expect forwarded markers for both downstream bolt tasks and an ack.
	wantDests := map[int32]bool{2: true, 3: true}
	sawAck := false
	deadline = time.Now().Add(5 * time.Second)
	for len(wantDests) > 0 || !sawAck {
		select {
		case f := <-sim.frames:
			switch f.kind {
			case network.MsgMarker:
				id, src, dest, err := tuple.DecodeMarker(f.data)
				if err != nil || id != 1 || src != 0 {
					t.Fatalf("forwarded marker = (%d,%d,%d) err %v", id, src, dest, err)
				}
				delete(wantDests, dest)
			case network.MsgControl:
				if m, err := ctrl.Decode(f.data); err == nil && m.Op == ctrl.OpCheckpointSaved {
					if m.TaskID != 0 || m.CheckpointID != 1 {
						t.Fatalf("saved ack = task %d id %d", m.TaskID, m.CheckpointID)
					}
					if sawAck {
						t.Fatal("duplicate checkpoint-saved ack")
					}
					sawAck = true
				}
			}
		default:
			if time.Now().After(deadline) {
				t.Fatalf("missing: dests %v, ack %v", wantDests, sawAck)
			}
			time.Sleep(time.Millisecond)
		}
	}

	// Duplicate trigger: must be a no-op.
	if err := conn.Send(network.MsgMarker, tuple.AppendMarker(nil, 1, -1, 0)); err != nil {
		t.Fatal(err)
	}
	time.Sleep(50 * time.Millisecond)
	for {
		select {
		case f := <-sim.frames:
			if f.kind == network.MsgMarker {
				t.Fatal("duplicate trigger re-forwarded markers")
			}
			if f.kind == network.MsgControl {
				if m, err := ctrl.Decode(f.data); err == nil && m.Op == ctrl.OpCheckpointSaved {
					t.Fatal("duplicate trigger re-acked")
				}
			}
			continue
		default:
		}
		break
	}

	data, err := backend.Load("t", 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	state, err := checkpoint.DecodeState(data)
	if err != nil {
		t.Fatal(err)
	}
	if string(state.Get("seq")) != "42" {
		t.Fatalf("spout snapshot seq = %q, want 42", state.Get("seq"))
	}
}

package stmgr

import (
	"maps"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"heron/internal/core"
	"heron/internal/ctrl"
	"heron/internal/metrics"
	"heron/internal/network"
	"heron/internal/replication"
	"heron/internal/statemgr"
	"heron/internal/tmaster"
	"heron/internal/tuple"
)

// fixture wires two stream managers to a real TMaster over the memory
// state manager, with fake "instances" as raw connections.
type fixture struct {
	cfg   *core.Config
	tm    *tmaster.TMaster
	sms   map[int32]*StreamManager
	topo  *core.Topology
	plan  *core.PackingPlan
	state *statemgr.Manager
}

func twoContainerPlan() (*core.Topology, *core.PackingPlan) {
	topo := &core.Topology{
		Name: "t",
		Components: []core.ComponentSpec{
			{Name: "s", Kind: core.KindSpout, Parallelism: 2,
				Outputs: map[string][]string{"default": {"v"}}},
			{Name: "b", Kind: core.KindBolt, Parallelism: 2,
				Inputs: []core.InputSpec{{Component: "s", Grouping: core.GroupShuffle}}},
		},
	}
	req := core.Resource{CPU: 1, RAMMB: 128, DiskMB: 128}
	ask := core.Resource{CPU: 4, RAMMB: 4096, DiskMB: 4096}
	plan := &core.PackingPlan{Topology: "t", Containers: []core.ContainerPlan{
		{ID: 1, Required: ask, Instances: []core.InstancePlacement{
			{ID: core.InstanceID{Component: "s", ComponentIndex: 0, TaskID: 0}, Resources: req},
			{ID: core.InstanceID{Component: "b", ComponentIndex: 0, TaskID: 2}, Resources: req},
		}},
		{ID: 2, Required: ask, Instances: []core.InstancePlacement{
			{ID: core.InstanceID{Component: "s", ComponentIndex: 1, TaskID: 1}, Resources: req},
			{ID: core.InstanceID{Component: "b", ComponentIndex: 1, TaskID: 3}, Resources: req},
		}},
	}}
	return topo, plan
}

func newFixture(t *testing.T, optimized bool) *fixture {
	t.Helper()
	cfg := core.NewConfig()
	cfg.AckingEnabled = true
	cfg.MessageTimeout = 5 * time.Second
	cfg.CacheDrainFrequency = time.Millisecond
	cfg.StreamManagerOptimized = optimized
	if !optimized {
		cfg.Codec = "naive"
	}

	topo, plan := twoContainerPlan()
	newState := func() *statemgr.Manager {
		sm, err := statemgr.Open(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return sm
	}
	state := newState()
	if err := state.SetTopology(topo); err != nil {
		t.Fatal(err)
	}
	if err := state.SetPackingPlan("t", plan); err != nil {
		t.Fatal(err)
	}
	tmState := newState()
	lg := replication.NewLog(tmState, "t")
	if err := lg.Fence(1); err != nil {
		t.Fatal(err)
	}
	tm, err := tmaster.New(tmaster.Options{Topology: "t", Cfg: cfg, State: tmState,
		Lead: &tmaster.Leadership{Term: 1, Log: lg, Recovered: &replication.View{}}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(tm.Stop)

	f := &fixture{cfg: cfg, tm: tm, sms: map[int32]*StreamManager{}, topo: topo, plan: plan, state: state}
	for _, c := range []int32{1, 2} {
		sm, err := New(Options{
			Topology: "t", Container: c, Cfg: cfg,
			State: newState(), Registry: metrics.NewRegistry(),
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(sm.Stop)
		f.sms[c] = sm
	}
	select {
	case <-tm.Ready():
	case <-time.After(5 * time.Second):
		t.Fatal("plan never broadcast")
	}
	// Ready means the plan was sent; wait until both Stream Managers have
	// applied it and dialed each other, or an early ack meets no peer.
	deadline := time.Now().Add(5 * time.Second)
	for c, sm := range f.sms {
		for sm.routes.Load().peers[3-c] == nil {
			if time.Now().After(deadline) {
				t.Fatalf("stmgr %d never connected to its peer", c)
			}
			time.Sleep(time.Millisecond)
		}
	}
	t.Cleanup(func() { state.Close() })
	return f
}

// fakeInstance registers a raw connection as a task and records frames.
type fakeInstance struct {
	conn   network.Conn
	frames chan struct {
		kind network.MsgKind
		data []byte
	}
}

func attachInstance(t *testing.T, sm *StreamManager, task int32) *fakeInstance {
	t.Helper()
	tr := network.InprocTransport{}
	conn, err := tr.Dial(sm.Addr())
	if err != nil {
		t.Fatal(err)
	}
	fi := &fakeInstance{conn: conn, frames: make(chan struct {
		kind network.MsgKind
		data []byte
	}, 1024)}
	conn.Start(func(kind network.MsgKind, payload []byte) {
		cp := make([]byte, len(payload))
		copy(cp, payload)
		select {
		case fi.frames <- struct {
			kind network.MsgKind
			data []byte
		}{kind, cp}:
		default:
		}
	})
	reg, err := ctrl.Encode(&ctrl.Message{Op: ctrl.OpRegisterInstance, Topology: "t", TaskID: task})
	if err != nil {
		t.Fatal(err)
	}
	if err := conn.Send(network.MsgControl, reg); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	return fi
}

// waitPlan consumes frames until the instance receives a physical plan.
func (fi *fakeInstance) waitPlan(t *testing.T) {
	t.Helper()
	deadline := time.After(5 * time.Second)
	for {
		select {
		case f := <-fi.frames:
			if f.kind == network.MsgControl {
				if m, err := ctrl.Decode(f.data); err == nil && m.Op == ctrl.OpPlan {
					return
				}
			}
		case <-deadline:
			t.Fatal("no plan delivered to instance")
		}
	}
}

// encodeSingle builds a count=1 data frame for an encoded tuple.
func encodeSingle(dt *tuple.DataTuple) []byte {
	enc := tuple.FastCodec{}.EncodeData(nil, dt)
	frame := tuple.AppendFrameHeader(nil, dt.DestTask, 1)
	return tuple.AppendFrameEntry(frame, enc)
}

func TestRoutesLocalAndRemote(t *testing.T) {
	for _, optimized := range []bool{true, false} {
		name := "optimized"
		if !optimized {
			name = "naive"
		}
		t.Run(name, func(t *testing.T) {
			f := newFixture(t, optimized)
			src := attachInstance(t, f.sms[1], 0)    // spout task on container 1
			local := attachInstance(t, f.sms[1], 2)  // bolt on container 1
			remote := attachInstance(t, f.sms[2], 3) // bolt on container 2
			src.waitPlan(t)
			local.waitPlan(t)
			remote.waitPlan(t)

			// Send one tuple to the local bolt and one to the remote bolt.
			for _, dest := range []int32{2, 3} {
				dt := &tuple.DataTuple{DestTask: dest, SrcTask: 0, StreamID: 0,
					Values: tuple.Values{"hello"}}
				if err := src.conn.Send(network.MsgData, encodeSingle(dt)); err != nil {
					t.Fatal(err)
				}
			}
			expect := func(fi *fakeInstance, dest int32) {
				deadline := time.After(5 * time.Second)
				for {
					select {
					case fr := <-fi.frames:
						if fr.kind != network.MsgData {
							continue
						}
						got, _, err := tuple.WalkFrame(fr.data, func(tb []byte) error {
							var dt tuple.DataTuple
							if err := (tuple.FastCodec{}).DecodeData(tb, &dt); err != nil {
								t.Error(err)
							}
							if dt.Values.String(0) != "hello" {
								t.Errorf("payload = %v", dt.Values)
							}
							return nil
						})
						if err != nil {
							t.Fatal(err)
						}
						if got != dest {
							t.Errorf("frame dest = %d, want %d", got, dest)
						}
						return
					case <-deadline:
						t.Fatalf("task %d never received tuple", dest)
					}
				}
			}
			expect(local, 2)
			expect(remote, 3)
		})
	}
}

func TestAckRoutingAndCompletion(t *testing.T) {
	f := newFixture(t, true)
	spout := attachInstance(t, f.sms[1], 0)
	bolt := attachInstance(t, f.sms[2], 3)
	spout.waitPlan(t)
	bolt.waitPlan(t)

	// The spout (task 0, container 1) anchors a tree; the bolt on
	// container 2 acks it; the spout must get the completion.
	root := core.MakeRoot(0, 12345)
	const key = 777
	anchor := tuple.AppendAckFrameHeader(nil, 1)
	anchor = tuple.AppendFrameEntry(anchor, tuple.EncodeAck(nil, &tuple.AckTuple{
		Kind: tuple.AckAnchor, SpoutTask: 0, Root: root, Delta: key,
	}))
	if err := spout.conn.Send(network.MsgAck, anchor); err != nil {
		t.Fatal(err)
	}
	ack := tuple.AppendAckFrameHeader(nil, 1)
	ack = tuple.AppendFrameEntry(ack, tuple.EncodeAck(nil, &tuple.AckTuple{
		Kind: tuple.AckAck, SpoutTask: 0, Root: root, Delta: key,
	}))
	if err := bolt.conn.Send(network.MsgAck, ack); err != nil {
		t.Fatal(err)
	}

	deadline := time.After(5 * time.Second)
	for {
		select {
		case fr := <-spout.frames:
			if fr.kind != network.MsgAck {
				continue
			}
			var done *tuple.AckTuple
			_ = tuple.WalkAckFrame(fr.data, func(ab []byte) error {
				var a tuple.AckTuple
				if tuple.DecodeAck(ab, &a) == nil {
					done = &a
				}
				return nil
			})
			if done == nil {
				continue
			}
			if done.Kind != tuple.AckAck || done.Root != root {
				t.Fatalf("completion = %+v", done)
			}
			return
		case <-deadline:
			t.Fatal("spout never notified of completion")
		}
	}
}

// TestMixedFrameSplitsByDestination: a mixed instance batch (per-tuple
// destinations) entering over a real connection goes whole to the worker,
// which splits it by destination: every tuple reaches its task, local and
// remote, with no tuple lost and none duplicated.
func TestMixedFrameSplitsByDestination(t *testing.T) {
	oneWorker(t, func(t *testing.T) {
		mixed := func(dests ...int32) []byte {
			frame := tuple.AppendFrameHeader(nil, tuple.MixedFrameDest, len(dests))
			for _, dest := range dests {
				enc := tuple.FastCodec{}.EncodeData(nil, &tuple.DataTuple{
					DestTask: dest, StreamID: 0, Values: tuple.Values{"x"}})
				frame = tuple.AppendFrameEntry(frame, enc)
			}
			return frame
		}
		f := newFixture(t, true)
		src := attachInstance(t, f.sms[1], 0)
		b2 := attachInstance(t, f.sms[1], 2)
		b3 := attachInstance(t, f.sms[2], 3)
		src.waitPlan(t)
		b2.waitPlan(t)
		b3.waitPlan(t)

		// One mixed frame carrying tuples for tasks 2 (local) and 3
		// (on the peer container).
		if err := src.conn.Send(network.MsgData, mixed(2, 3)); err != nil {
			t.Fatal(err)
		}
		for _, fi := range []*fakeInstance{b2, b3} {
			deadline := time.After(5 * time.Second)
			for got := false; !got; {
				select {
				case fr := <-fi.frames:
					// A late plan rebroadcast may come first.
					got = fr.kind == network.MsgData
				case <-deadline:
					t.Fatal("mixed frame tuple not delivered")
				}
			}
		}

		// One tuple for each of 8 local bolt tasks. Each tuple seals as
		// its own single-destination batch once the inbox idles; exactly 8
		// must come out the other side.
		s, delivered := newParallelSM(t)
		ingestOwned(s, network.MsgData, mixed(8, 9, 10, 11, 12, 13, 14, 15))
		deadline := time.Now().Add(5 * time.Second)
		for delivered() < 8 {
			if time.Now().After(deadline) {
				t.Fatalf("delivered %d frames, want 8", delivered())
			}
			time.Sleep(time.Millisecond)
		}
		time.Sleep(5 * time.Millisecond) // a duplicate would trail the eighth
		if got := delivered(); got != 8 {
			t.Fatalf("delivered %d frames, want exactly 8", got)
		}
	})
}

func TestOutbox(t *testing.T) {
	tr := network.InprocTransport{}
	l, err := tr.Listen("")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	accepted := make(chan network.Conn, 1)
	go func() {
		c, err := l.Accept()
		if err == nil {
			accepted <- c
		}
	}()
	conn, err := tr.Dial(l.Addr())
	if err != nil {
		t.Fatal(err)
	}
	server := <-accepted
	var got atomic.Int64
	server.Start(func(kind network.MsgKind, payload []byte) { got.Add(1) })

	var depths []int
	var mu sync.Mutex
	o := newOutbox(conn, func(d int) {
		mu.Lock()
		depths = append(depths, d)
		mu.Unlock()
	}, nil)
	for i := 0; i < 100; i++ {
		o.enqueue(network.MsgData, []byte{byte(i)})
	}
	deadline := time.Now().Add(5 * time.Second)
	for got.Load() < 100 {
		if time.Now().After(deadline) {
			t.Fatalf("delivered %d of 100", got.Load())
		}
		time.Sleep(time.Millisecond)
	}
	o.close()
	if o.depth() != 0 {
		t.Errorf("depth after close = %d", o.depth())
	}
	// enqueue after close is a silent no-op.
	o.enqueue(network.MsgData, []byte{1})
	mu.Lock()
	if len(depths) == 0 {
		t.Error("onDepth never called")
	}
	mu.Unlock()
	conn.Close()
	server.Close()
}

func TestStopIsIdempotent(t *testing.T) {
	f := newFixture(t, true)
	f.sms[1].Stop()
	f.sms[1].Stop() // second stop must not hang or panic
}

func TestPlanExposed(t *testing.T) {
	f := newFixture(t, true)
	deadline := time.Now().Add(5 * time.Second)
	for f.sms[1].Plan() == nil {
		if time.Now().After(deadline) {
			t.Fatal("plan never installed")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if got := len(f.sms[1].Plan().Tasks); got != 4 {
		t.Errorf("tasks = %d", got)
	}
	if s := f.sms[1].String(); s == "" {
		t.Error("empty String()")
	}
}

// TestEarlyFramesParkedUntilRegistration covers the startup race: data
// for a local task arrives before that instance registers (spouts and
// bolts start concurrently). The Stream Manager must park and replay the
// frames instead of dropping them.
func TestEarlyFramesParkedUntilRegistration(t *testing.T) {
	f := newFixture(t, true)
	src := attachInstance(t, f.sms[1], 0)
	src.waitPlan(t)

	// Task 2 (local bolt) has not registered yet: send it tuples.
	for i := 0; i < 5; i++ {
		dt := &tuple.DataTuple{DestTask: 2, SrcTask: 0, StreamID: 0,
			Values: tuple.Values{"early"}}
		if err := src.conn.Send(network.MsgData, encodeSingle(dt)); err != nil {
			t.Fatal(err)
		}
	}
	time.Sleep(50 * time.Millisecond) // let the drain cycle park them

	late := attachInstance(t, f.sms[1], 2)
	received := 0
	deadline := time.After(5 * time.Second)
	for received < 5 {
		select {
		case fr := <-late.frames:
			if fr.kind != network.MsgData {
				continue
			}
			_, n, err := tuple.WalkFrame(fr.data, nil)
			if err != nil {
				t.Fatal(err)
			}
			received += n
		case <-deadline:
			t.Fatalf("received %d of 5 early tuples", received)
		}
	}
}

// TestRedeliveredTMasterLocationKeepsRegistration: the location watch and
// watchTMaster's initial read can both deliver the same location at once.
// Acting on both must leave the TMaster holding a live connection to this
// Stream Manager, so later plan broadcasts still arrive.
func TestRedeliveredTMasterLocationKeepsRegistration(t *testing.T) {
	f := newFixture(t, true)
	sm := f.sms[1]
	loc, err := f.state.GetTMasterLocation("t")
	if err != nil {
		t.Fatal(err)
	}
	epoch := func() int64 {
		sm.mu.Lock()
		defer sm.mu.Unlock()
		return sm.epoch
	}
	for i := 0; i < 100; i++ {
		var wg sync.WaitGroup
		for j := 0; j < 2; j++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				sm.connectTMaster(loc)
			}()
		}
		wg.Wait()
		before := epoch()
		deadline := time.Now().Add(2 * time.Second)
		for epoch() == before {
			f.tm.Refresh()
			if time.Now().After(deadline) {
				t.Fatalf("round %d: no plan reached the Stream Manager after a redelivered location", i)
			}
			time.Sleep(time.Millisecond)
		}
	}
}

// TestPlansOrderedByEpochAlone: a plan's epoch is the control-log seq of
// its record, which rises across TMaster generations, so a Stream
// Manager keeps the highest epoch it has seen. A late broadcast with a
// lower epoch — say from a generation that has since been replaced — is
// dropped, and any higher one is applied, whichever generation sent it.
func TestPlansOrderedByEpochAlone(t *testing.T) {
	s, _ := newPlanlessSM(t)
	topo, packing := twoContainerPlan()
	apply := func(epoch int64) (int64, *core.PhysicalPlan) {
		s.applyPlan(&ctrl.PlanPayload{Epoch: epoch, Topology: topo, Packing: packing,
			Stmgrs: map[int32]string{1: "self"}})
		s.mu.Lock()
		defer s.mu.Unlock()
		return s.epoch, s.plan
	}
	_, first := apply(5)
	if got, plan := apply(3); got != 5 || plan != first {
		t.Fatalf("a lower epoch was applied: epoch %d, plan replaced %v", got, plan != first)
	}
	if got, plan := apply(9); got != 9 || plan == first {
		t.Fatalf("a higher epoch was dropped: epoch %d, plan replaced %v", got, plan != first)
	}
}

// stmgrGoroutines counts the live goroutines whose entry function is in
// this package, by that function.
func stmgrGoroutines() map[string]int {
	buf := make([]byte, 1<<16)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			buf = buf[:n]
			break
		}
		buf = make([]byte, 2*len(buf))
	}
	const pkg = "heron/internal/stmgr."
	census := map[string]int{}
	for _, g := range strings.Split(string(buf), "\n\n") {
		lines := strings.Split(g, "\n")
		for i, line := range lines {
			// A frame is a function line then a file line; the entry is
			// the frame above "created by".
			if !strings.HasPrefix(line, "created by ") || i < 2 {
				continue
			}
			entry := lines[i-2]
			if strings.HasPrefix(entry, pkg) {
				entry = strings.TrimPrefix(entry[:strings.LastIndex(entry, "(")], pkg)
				census[entry]++
			}
		}
	}
	return census
}

// TestGoroutineCensus: a Stream Manager with k registered instances and p
// peers runs one worker, one accept loop and one sender per outbox — one
// per instance, a control and a data outbox per peer — and no other
// goroutine, and Stop ends them all.
func TestGoroutineCensus(t *testing.T) {
	const k, p = 3, 2
	cfg := core.NewConfig()
	state, err := statemgr.Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { state.Close() })
	s, err := New(Options{Topology: "t", Container: 1, Cfg: cfg, State: state, Registry: metrics.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Stop)
	for task := int32(0); task < k; task++ {
		attachInstance(t, s, task)
	}
	for c := int32(2); c < 2+p; c++ {
		s.attachPeer(c, "peer", &nullConn{})
	}
	want := map[string]int{
		"(*StreamManager).run":        1,
		"(*StreamManager).acceptLoop": 1,
		"(*outbox).run":               k + 2*p,
	}
	// Goroutines of earlier tests' Stream Managers may still be exiting.
	expect := func(want map[string]int) {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for {
			got := stmgrGoroutines()
			if maps.Equal(got, want) {
				return
			}
			if time.Now().After(deadline) {
				t.Fatalf("goroutines by entry = %v, want %v", got, want)
			}
			time.Sleep(time.Millisecond)
		}
	}
	expect(want)
	s.Stop()
	expect(map[string]int{})
}

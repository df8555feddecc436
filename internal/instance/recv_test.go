package instance

import (
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"
	"unsafe"

	"heron/api"
	"heron/internal/core"
	"heron/internal/encoding/wire"
	"heron/internal/metrics"
	"heron/internal/network"
	"heron/internal/tuple"
)

// valueBolt records every executed tuple as "source/stream:word=count".
type valueBolt struct {
	mu  sync.Mutex
	got []string
}

func (b *valueBolt) Prepare(api.TopologyContext, api.BoltCollector) error { return nil }
func (b *valueBolt) Cleanup() error                                       { return nil }

func (b *valueBolt) Execute(t api.Tuple) error {
	b.mu.Lock()
	b.got = append(b.got, fmt.Sprintf("%s/%s:%s=%d", t.SourceComponent(), t.Stream(), t.String(0), t.Int(1)))
	b.mu.Unlock()
	return nil
}

type nopBolt struct{}

func (nopBolt) Prepare(api.TopologyContext, api.BoltCollector) error { return nil }
func (nopBolt) Execute(api.Tuple) error                              { return nil }
func (nopBolt) Cleanup() error                                       { return nil }

// newExecutor builds bolt task 1 of planPayload with no connection: just
// enough state to drive boltData and releaseHeld on the test goroutine.
func newExecutor(t *testing.T, bolt api.Bolt) (*Instance, *boltCollector) {
	t.Helper()
	ps, err := newPlanState(planPayload(1), 1)
	if err != nil {
		t.Fatal(err)
	}
	reg := metrics.NewRegistry()
	tags := metrics.Tags{Component: "b", Task: 1}
	in := &Instance{
		opts: Options{ID: core.InstanceID{Component: "b", TaskID: 1},
			Kind: core.KindBolt, Bolt: bolt, Cfg: core.NewConfig()},
		codec:     tuple.FastCodec{},
		mExecuted: reg.Counter(metrics.MExecuteCount, tags),
		mExecLat:  reg.Histogram(metrics.MExecuteLatency, tags),
	}
	in.plan.Store(ps)
	return in, &boltCollector{in: in}
}

// wordFrame encodes n (word, count) tuples from task src to task 1, words
// prefixed with prefix, into a pooled buffer.
func wordFrame(src int32, prefix string, n int) *wire.Buffer {
	buf := wire.GetBuffer()
	buf.B = tuple.AppendFrameHeader(buf.B, 1, n)
	var enc []byte
	for i := 0; i < n; i++ {
		enc = tuple.FastCodec{}.EncodeData(enc[:0], &tuple.DataTuple{DestTask: 1, SrcTask: src,
			Values: tuple.Values{fmt.Sprintf("%s-%d", prefix, i), int64(1000 + i)}})
		buf.B = tuple.AppendFrameEntry(buf.B, enc)
	}
	return buf
}

func TestBoltTupleIsOneSmallAllocation(t *testing.T) {
	if sz := unsafe.Sizeof(boltTuple{}); sz > 112 {
		t.Fatalf("boltTuple is %d B, want <= 112 (one 112 B size class)", sz)
	}
}

// TestBoltDataAllocs pins the receive path's allocations: a (string,
// int64) tuple costs its two decoded values plus the one-allocation
// boltTuple, and the frame itself costs nothing.
func TestBoltDataAllocs(t *testing.T) {
	in, col := newExecutor(t, nopBolt{})
	var dt tuple.DataTuple
	allocs := func(n int) float64 {
		frame := wordFrame(0, "word", n)
		defer wire.PutBuffer(frame)
		// Frames are built before measuring, not taken from the pool: the
		// race detector makes sync.Pool drop puts at random.
		const runs = 100
		bufs := make([]*wire.Buffer, runs+1) // AllocsPerRun warms up once
		for i := range bufs {
			bufs[i] = &wire.Buffer{B: append([]byte(nil), frame.B...)}
		}
		next := 0
		return testing.AllocsPerRun(runs, func() {
			in.boltData(bufs[next], &dt, col)
			next++
		})
	}
	a64, a128 := allocs(64), allocs(128)
	perTuple := (a128 - a64) / 64
	perFrame := a64 - 64*perTuple
	t.Logf("per tuple %.2f, per frame %.2f", perTuple, perFrame)
	if perTuple > 4 {
		t.Errorf("%.2f allocations per tuple, want <= 4", perTuple)
	}
	if perFrame > 0 {
		t.Errorf("%.2f allocations per frame, want 0", perFrame)
	}
}

// TestHeldTuplesSurvivePoolReuse is the use-after-recycle regression: a
// tuple held behind a barrier aliases its inbox frame, so that frame must
// stay out of the pool until the barrier releases it, however many frames
// pass through the pool meanwhile.
func TestHeldTuplesSurvivePoolReuse(t *testing.T) {
	bolt := &valueBolt{}
	in, col := newExecutor(t, bolt)
	var dt tuple.DataTuple
	// Channel 0 has delivered its marker, channel 2 has not.
	in.bar = &barrier{id: 1, waiting: map[int32]bool{2: true}}

	in.boltData(wordFrame(0, "held", 8), &dt, col)
	for i := 0; i < 100; i++ {
		in.boltData(wordFrame(2, fmt.Sprintf("free%d", i), 8), &dt, col)
	}
	if n := len(bolt.got); n != 800 {
		t.Fatalf("executed %d tuples from the unmarked channel, want 800", n)
	}
	in.releaseHeld(&dt, col)

	got := bolt.got[800:]
	if len(got) != 8 {
		t.Fatalf("released %d held tuples, want 8: %v", len(got), got)
	}
	for i, g := range got {
		if want := fmt.Sprintf("s/default:held-%d=%d", i, 1000+i); g != want {
			t.Errorf("held tuple %d = %q, want %q", i, g, want)
		}
	}
}

// blockingBolt parks every Execute until release is closed.
type blockingBolt struct {
	nopBolt
	release chan struct{}
}

func (b *blockingBolt) Execute(api.Tuple) error {
	<-b.release
	return nil
}

// TestStopWithQueuedFrames stops a bolt whose inbox is full and whose
// connection handler is blocked on it: nothing panics, and every goroutine
// the instance and its connection started exits.
func TestStopWithQueuedFrames(t *testing.T) {
	sim := newStmgrSim(t)
	before := runtime.NumGoroutine()
	bolt := &blockingBolt{release: make(chan struct{})}
	inst, err := New(Options{
		Topology:  "t",
		ID:        core.InstanceID{Component: "b", ComponentIndex: 0, TaskID: 1},
		Kind:      core.KindBolt,
		Bolt:      bolt,
		Cfg:       core.NewConfig(),
		StmgrAddr: sim.listener.Addr(),
	})
	if err != nil {
		t.Fatal(err)
	}
	sim.waitRegistered(t, 1)
	sim.sendPlan(t, 1)
	conn := sim.conn(t)

	sent := make(chan struct{})
	go func() {
		defer close(sent)
		frame := dataFrame(0, 1, "w")
		for conn.Send(network.MsgData, frame) == nil {
		}
	}()
	deadline := time.Now().Add(5 * time.Second)
	for len(inst.inbox) < cap(inst.inbox) {
		if time.Now().After(deadline) {
			t.Fatalf("inbox holds %d of %d frames", len(inst.inbox), cap(inst.inbox))
		}
		time.Sleep(time.Millisecond)
	}
	stopped := make(chan struct{})
	go func() {
		inst.Stop()
		close(stopped)
	}()
	close(bolt.release)
	select {
	case <-stopped:
	case <-time.After(5 * time.Second):
		t.Fatal("Stop did not return")
	}
	<-sent

	deadline = time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines: %d after Stop, %d before New", runtime.NumGoroutine(), before)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

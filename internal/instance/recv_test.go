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
	if sz := unsafe.Sizeof(boltTuple{}); sz > 48 {
		t.Fatalf("boltTuple is %d B, want <= 48 (one 48 B size class)", sz)
	}
}

// TestBoltDataAllocs pins the receive path's allocations: a (string,
// int64) tuple costs the boltTuple and its one owned copy of the encoded
// values — nothing is boxed or materialised — and the frame itself costs
// nothing.
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
	if perTuple > 2 {
		t.Errorf("%.2f allocations per tuple, want <= 2", perTuple)
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

// keepBolt keeps every tuple it executes, the String(0) it read, and a
// map keyed by that string: everything user code may legally hold on to
// after Execute returns.
type keepBolt struct {
	nopBolt
	tuples []api.Tuple
	words  []string
	counts map[string]int64
}

func (b *keepBolt) Execute(t api.Tuple) error {
	w := t.String(0)
	b.tuples = append(b.tuples, t)
	b.words = append(b.words, w)
	b.counts[w] += t.Int(1)
	return nil
}

// TestRetainedTuplesSurviveFrameReuse: tuples, their String results and
// map keys built from them stay intact after their frame is overwritten
// and recycled through the pool — on the direct path and on the held
// path of a barrier. A tuple that aliased its frame instead of owning a
// copy would read the overwrite.
func TestRetainedTuplesSurviveFrameReuse(t *testing.T) {
	for _, held := range []bool{false, true} {
		t.Run(fmt.Sprintf("held=%v", held), func(t *testing.T) {
			bolt := &keepBolt{counts: map[string]int64{}}
			in, col := newExecutor(t, bolt)
			var dt tuple.DataTuple
			if held {
				in.bar = &barrier{id: 1, waiting: map[int32]bool{2: true}}
			}
			frame := wordFrame(0, "kept", 16)
			b := frame.B[:cap(frame.B)]
			in.boltData(frame, &dt, col)
			in.releaseHeld(&dt, col)
			// The frame is back in the pool: scribble over it and churn
			// the pool with other frames.
			for i := range b {
				b[i] = 'X'
			}
			for i := 0; i < 32; i++ {
				in.boltData(wordFrame(0, "churn", 16), &dt, col)
			}
			for i := 0; i < 16; i++ {
				want := fmt.Sprintf("kept-%d", i)
				if got := bolt.tuples[i].String(0); got != want {
					t.Errorf("tuple %d String(0) = %q, want %q", i, got, want)
				}
				if got := bolt.tuples[i].Int(1); got != int64(1000+i) {
					t.Errorf("tuple %d Int(1) = %d, want %d", i, got, 1000+i)
				}
				if bolt.words[i] != want {
					t.Errorf("kept String result %d = %q, want %q", i, bolt.words[i], want)
				}
				if bolt.counts[want] != int64(1000+i) {
					t.Errorf("map key %q lost: %v", want, bolt.counts[want])
				}
			}
		})
	}
}

// captureBolt hands each executed tuple to fn while Execute runs.
type captureBolt struct {
	nopBolt
	fn func(*boltTuple)
}

func (b *captureBolt) Execute(t api.Tuple) error {
	b.fn(t.(*boltTuple))
	return nil
}

// TestBoltTupleReadsItsCopy: the tuple's roots and every kind of value
// read back from its own copy; Bytes and Values materialise once and
// return the same slice thereafter; a kind mismatch panics.
func TestBoltTupleReadsItsCopy(t *testing.T) {
	roots := []uint64{1, 1 << 63, 0xdeadbeefcafe}
	vs := tuple.Values{"w", int64(-7), 2.5, true, []byte{1, 2}}
	enc := tuple.FastCodec{}.EncodeData(nil, &tuple.DataTuple{DestTask: 1, Key: 9, Roots: roots, Values: vs})
	var dt tuple.DataTuple
	body, err := tuple.DecodeHeader(enc, &dt)
	if err != nil {
		t.Fatal(err)
	}
	bt := newBoltTuple(&dt, body)
	for i, r := range roots {
		if got := bt.root(i); got != r {
			t.Errorf("root %d = %#x, want %#x", i, got, r)
		}
	}
	// A fresh tuple's ack delta is its own key: nothing is anchored to it yet.
	if bt.delta != 9 || int(bt.nroots) != len(roots) {
		t.Errorf("delta %d, %d roots", bt.delta, bt.nroots)
	}
	if bt.String(0) != "w" || bt.Int(1) != -7 || bt.Float(2) != 2.5 || !bt.Bool(3) {
		t.Errorf("getters = %q %d %v %v", bt.String(0), bt.Int(1), bt.Float(2), bt.Bool(3))
	}
	if bt.values.Load() != nil {
		t.Fatal("typed getters materialised the values")
	}
	b := bt.Bytes(4)
	if string(b) != "\x01\x02" {
		t.Errorf("Bytes(4) = %v", b)
	}
	all := bt.Values()
	if len(all) != len(vs) || &all[0] != &bt.Values()[0] || &b[0] != &bt.Bytes(4)[0] {
		t.Error("Values and Bytes must return the one cached slice")
	}
	defer func() {
		if recover() == nil {
			t.Error("Int of a string value did not panic")
		}
	}()
	bt.Int(0)
}

// TestBoltTupleConcurrentValues: goroutines that share a kept tuple may
// all call Values; they race to materialise it and all get one slice.
func TestBoltTupleConcurrentValues(t *testing.T) {
	enc := tuple.FastCodec{}.EncodeData(nil, &tuple.DataTuple{Values: tuple.Values{"w", []byte{1}}})
	var dt tuple.DataTuple
	body, err := tuple.DecodeHeader(enc, &dt)
	if err != nil {
		t.Fatal(err)
	}
	bt := newBoltTuple(&dt, body)
	got := make([]*any, 8)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i] = &bt.Values()[0]
		}(i)
	}
	wg.Wait()
	for i := range got {
		if got[i] != got[0] {
			t.Fatalf("goroutine %d got a different Values slice", i)
		}
	}
}

// TestNaiveArmMaterialisesAtReceive: with the naive codec every value is
// decoded before Execute, whatever the bolt reads; with the fast codec
// nothing is.
func TestNaiveArmMaterialisesAtReceive(t *testing.T) {
	for _, codec := range []tuple.Codec{tuple.FastCodec{}, tuple.NaiveCodec{}} {
		t.Run(codec.Name(), func(t *testing.T) {
			executed := 0
			in, col := newExecutor(t, &captureBolt{fn: func(bt *boltTuple) {
				executed++
				if eager := bt.values.Load() != nil; eager != !codec.Lazy() {
					t.Errorf("values materialised at receive = %v", eager)
				}
			}})
			in.codec = codec
			var dt tuple.DataTuple
			in.boltData(wordFrame(0, "w", 4), &dt, col)
			if executed != 4 {
				t.Fatalf("executed %d tuples, want 4", executed)
			}
		})
	}
}

// TestStreamIDOutsideThePlan: a tuple whose stream id is negative or past
// the plan's stream table executes with no stream info instead of
// indexing the table out of range.
func TestStreamIDOutsideThePlan(t *testing.T) {
	var streams []string
	in, col := newExecutor(t, &captureBolt{fn: func(bt *boltTuple) {
		streams = append(streams, bt.SourceComponent()+"/"+bt.Stream())
	}})
	frame := tuple.AppendFrameHeader(nil, 1, 2)
	for _, sid := range []int32{-1, 1 << 20} {
		frame = tuple.AppendFrameEntry(frame, tuple.FastCodec{}.EncodeData(nil,
			&tuple.DataTuple{DestTask: 1, StreamID: sid, Values: tuple.Values{"w", int64(1)}}))
	}
	var dt tuple.DataTuple
	in.executeFrame(frame, &dt, col)
	if len(streams) != 2 || streams[0] != "/" || streams[1] != "/" {
		t.Fatalf("executed with streams %q, want two without stream info", streams)
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

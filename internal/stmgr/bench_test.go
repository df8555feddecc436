package stmgr

import (
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"heron/internal/core"
	"heron/internal/encoding/wire"
	"heron/internal/healthmgr"
	"heron/internal/metrics"
	"heron/internal/network"
	"heron/internal/tuple"
)

// nullConn discards every frame; benchmarks use it to isolate the cost of
// the routing and outbox layers from any real transport.
type nullConn struct {
	sends   atomic.Int64
	flushes atomic.Int64
}

func (c *nullConn) Send(kind network.MsgKind, payload []byte) error {
	c.sends.Add(1)
	return nil
}

func (c *nullConn) SendOwned(kind network.MsgKind, buf *wire.Buffer) error {
	c.sends.Add(1)
	wire.PutBuffer(buf)
	return nil
}

func (c *nullConn) Flush() error {
	c.flushes.Add(1)
	return nil
}

func (c *nullConn) Start(network.Handler) {}

func (c *nullConn) StartOwned(network.OwnedHandler) {}

func (c *nullConn) Close() error { return nil }

// newBenchSM builds a Stream Manager with routing state installed directly
// (no TMaster, no listener): container 1 hosts tasks 0 and 2, container 2
// (a peer behind a null conn) hosts tasks 1 and 3.
func newBenchSM(tb testing.TB) *StreamManager {
	tb.Helper()
	topo, packing := twoContainerPlan()
	return newBenchSMPlan(tb, topo, packing)
}

// newBenchSMPlan builds a Stream Manager for an explicit topology and
// packing plan (same two-container layout) through the same core
// constructor New uses, with routing state installed directly (no
// TMaster, no listener) and its worker not started: the test's goroutine
// may call the worker's frame function itself. Each tune edits the
// configuration first. Local task 2 and the peer container sit behind
// null conns.
func newBenchSMPlan(tb testing.TB, topo *core.Topology, packing *core.PackingPlan, tune ...func(*core.Config)) *StreamManager {
	tb.Helper()
	cfg := core.NewConfig()
	cfg.StreamManagerOptimized = true
	for _, f := range tune {
		f(cfg)
	}
	pp, err := core.NewPhysicalPlan(topo, packing)
	if err != nil {
		tb.Fatal(err)
	}
	s, err := newCore(Options{Topology: "bench", Container: 1, Cfg: cfg, Registry: metrics.NewRegistry()})
	if err != nil {
		tb.Fatal(err)
	}
	s.mu.Lock()
	s.plan = pp
	s.instances[2] = newOutbox(&nullConn{}, nil, s.onBytesSent)
	s.publishRoutesLocked()
	s.mu.Unlock()
	s.attachPeer(2, "bench-peer", &nullConn{})
	tb.Cleanup(s.Stop)
	return s
}

// newWorkerSM is newBenchSM with its worker running: frames ingested with
// routeFrameOwned travel the inbox, as they do from a transport.
func newWorkerSM(tb testing.TB, tune ...func(*core.Config)) *StreamManager {
	tb.Helper()
	topo, packing := twoContainerPlan()
	s := newBenchSMPlan(tb, topo, packing, tune...)
	s.startWorker()
	return s
}

// owned copies frame into a pooled buffer, as a transport's receive does.
func owned(frame []byte) *wire.Buffer {
	buf := wire.GetBuffer()
	buf.B = append(buf.B, frame...)
	return buf
}

// process runs one frame through processFrame — the worker's per-frame
// function — from the calling goroutine: the route cost without the inbox
// hop. The Stream Manager's worker must not be running.
func process(s *StreamManager, kind network.MsgKind, frame []byte) {
	s.processFrame(kind, owned(frame))
}

// runQueued processes every frame waiting in the inbox on the calling
// goroutine, standing in for the worker of a Stream Manager built without
// one.
func runQueued(s *StreamManager) {
	for {
		select {
		case f := <-s.inbox:
			s.processFrame(f.kind, f.buf)
		default:
			return
		}
	}
}

// benchFrame builds a pre-batched data frame of n tuples for dest.
func benchFrame(dest int32, n int) []byte {
	var entries [][]byte
	for i := 0; i < n; i++ {
		enc := tuple.FastCodec{}.EncodeData(nil, &tuple.DataTuple{
			DestTask: dest, SrcTask: 0, StreamID: 0,
			Values: tuple.Values{"benchmark-payload-word"},
		})
		entries = append(entries, enc)
	}
	frame := tuple.AppendFrameHeader(nil, dest, n)
	for _, e := range entries {
		frame = tuple.AppendFrameEntry(frame, e)
	}
	return frame
}

// BenchmarkRouteLazy measures the lazy router (processData) on the three frame
// shapes it sees in steady state: a pre-batched frame bound for a local
// instance, one bound for a peer, and a single-tuple frame entering the
// tuple cache.
func BenchmarkRouteLazy(b *testing.B) {
	b.Run("prebatched-local", func(b *testing.B) {
		s := newBenchSM(b)
		frame := benchFrame(2, 8)
		b.SetBytes(int64(len(frame)))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			process(s, network.MsgData, frame)
		}
	})
	b.Run("prebatched-remote", func(b *testing.B) {
		s := newBenchSM(b)
		frame := benchFrame(3, 8)
		b.SetBytes(int64(len(frame)))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			process(s, network.MsgData, frame)
		}
	})
	b.Run("single-into-cache", func(b *testing.B) {
		s := newBenchSM(b)
		frame := benchFrame(2, 1)
		b.SetBytes(int64(len(frame)))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			process(s, network.MsgData, frame)
		}
	})
}

// benchModStrategy is a registered custom grouping strategy (routes on
// string length modulo task count, reused result buffer) for the
// custom-grouping route benchmarks.
type benchModStrategy struct {
	n   int
	buf [1]int
}

func (s *benchModStrategy) Prepare(nTasks int) { s.n = nTasks }

func (s *benchModStrategy) Select(values []any) []int {
	w, _ := values[0].(string)
	s.buf[0] = len(w) % s.n
	return s.buf[:]
}

func init() {
	core.RegisterGroupingStrategy("bench-mod", func() core.GroupingStrategy {
		return &benchModStrategy{}
	})
}

// customGroupingPlan is twoContainerPlan with the bolt subscribed through
// the registered "bench-mod" custom strategy instead of shuffle.
func customGroupingPlan() (*core.Topology, *core.PackingPlan) {
	topo, packing := twoContainerPlan()
	topo.Components[1].Inputs[0] = core.InputSpec{
		Component: "s", Grouping: core.GroupCustom, Strategy: "bench-mod",
	}
	return topo, packing
}

// BenchmarkRouteCustomGrouping measures routed throughput when the plan's
// subscription uses a registry-backed custom strategy. Strategy selection
// happens on the emitting instance, so the Stream Manager's by-dest-header
// routing must match the BenchmarkRouteLazy baselines exactly — pluggable
// groupings cost the data path nothing — and stay at 0 allocs/op.
func BenchmarkRouteCustomGrouping(b *testing.B) {
	b.Run("prebatched-local", func(b *testing.B) {
		topo, packing := customGroupingPlan()
		s := newBenchSMPlan(b, topo, packing)
		frame := benchFrame(2, 8)
		b.SetBytes(int64(len(frame)))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			process(s, network.MsgData, frame)
		}
	})
	b.Run("prebatched-remote", func(b *testing.B) {
		topo, packing := customGroupingPlan()
		s := newBenchSMPlan(b, topo, packing)
		frame := benchFrame(3, 8)
		b.SetBytes(int64(len(frame)))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			process(s, network.MsgData, frame)
		}
	})
}

// TestRouteCustomGroupingZeroAlloc pins the custom-grouping routed path
// (local and peer legs) at zero steady-state allocations per frame, the
// same guarantee the shuffle-plan data path makes.
func TestRouteCustomGroupingZeroAlloc(t *testing.T) {
	topo, packing := customGroupingPlan()
	s := newBenchSMPlan(t, topo, packing)
	assertRouteZeroAlloc(t, s, 2)
	assertRouteZeroAlloc(t, s, 3)
}

// BenchmarkRouteCheckpoint measures what checkpointing costs the hot
// routing path. "off" is the plain data stream (checkpointing disabled is
// the default; markers never appear, so this must match BenchmarkRouteLazy
// and stay allocation-free). "on" interleaves a checkpoint marker every
// 256 data frames — a far higher marker rate than any realistic interval —
// so the per-frame delta bounds the steady-state overhead from above.
func BenchmarkRouteCheckpoint(b *testing.B) {
	b.Run("off", func(b *testing.B) {
		s := newBenchSM(b)
		frame := benchFrame(2, 8)
		b.SetBytes(int64(len(frame)))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			process(s, network.MsgData, frame)
		}
	})
	b.Run("on", func(b *testing.B) {
		s := newBenchSM(b)
		frame := benchFrame(2, 8)
		marker := tuple.AppendMarker(nil, 1, 0, 2)
		b.SetBytes(int64(len(frame)))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			process(s, network.MsgData, frame)
			if i%256 == 255 {
				process(s, network.MsgMarker, marker)
			}
		}
	})
}

// BenchmarkRouteTxn bounds what end-to-end transactions cost the routing
// hot path. "off" is the checkpoint cadence alone (markers every 256
// frames); "on" adds the transactional second phase — a global-commit
// notification fanned out as a MsgCommitted frame after each barrier.
// The two columns must stay within noise of each other and the route
// loop must remain allocation-free: commit notifications are per-epoch
// control traffic, amortized to nothing against the data path.
func BenchmarkRouteTxn(b *testing.B) {
	b.Run("off", func(b *testing.B) {
		s := newBenchSM(b)
		frame := benchFrame(2, 8)
		marker := tuple.AppendMarker(nil, 1, 0, 2)
		b.SetBytes(int64(len(frame)))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			process(s, network.MsgData, frame)
			if i%256 == 255 {
				process(s, network.MsgMarker, marker)
			}
		}
	})
	b.Run("on", func(b *testing.B) {
		s := newBenchSM(b)
		frame := benchFrame(2, 8)
		marker := tuple.AppendMarker(nil, 1, 0, 2)
		b.SetBytes(int64(len(frame)))
		b.ResetTimer()
		epoch := int64(0)
		for i := 0; i < b.N; i++ {
			process(s, network.MsgData, frame)
			if i%256 == 255 {
				process(s, network.MsgMarker, marker)
				epoch++
				s.notifyCommitted(epoch)
				runQueued(s)
			}
		}
	})
}

// healthStubTopo is an inert healthmgr.Topology: a frozen metrics view
// (TakenAt never advances, so the sensor produces no samples after
// warmup) over a one-container plan. It lets the benchmark run a live
// health-manager loop without a TMaster.
type healthStubTopo struct {
	view *metrics.TopologyView
	plan *core.PackingPlan
}

func newHealthStubTopo() *healthStubTopo {
	v := metrics.NewView()
	v.TakenAt = time.Unix(1, 0)
	return &healthStubTopo{
		view: v,
		plan: &core.PackingPlan{Topology: "bench", Containers: []core.ContainerPlan{{
			ID: 1,
			Instances: []core.InstancePlacement{{
				ID: core.InstanceID{Component: "word", ComponentIndex: 0, TaskID: 0},
			}},
		}}},
	}
}

func (h *healthStubTopo) Name() string                            { return "bench" }
func (h *healthStubTopo) Metrics() *metrics.TopologyView          { return h.view }
func (h *healthStubTopo) PackingPlan() (*core.PackingPlan, error) { return h.plan, nil }
func (h *healthStubTopo) ScaleComponent(string, int) error        { return nil }
func (h *healthStubTopo) MaxSpoutPending() (int, error)           { return 0, nil }
func (h *healthStubTopo) SetMaxSpoutPending(int) error            { return nil }
func (h *healthStubTopo) Restart(int32) error                     { return nil }

// BenchmarkRouteHealthIdle bounds what an idle health manager costs the
// routing hot path. "off" is the plain optimized router;  "on" runs the
// same loop while a health manager ticks every 10ms in the background —
// far more often than the production default — against an idle topology.
// The health loop shares no locks with routing, so the two columns must
// agree within noise (<1% ns/op) and routing must stay at 0 allocs/op.
func BenchmarkRouteHealthIdle(b *testing.B) {
	b.Run("off", func(b *testing.B) {
		s := newBenchSM(b)
		frame := benchFrame(2, 8)
		b.SetBytes(int64(len(frame)))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			process(s, network.MsgData, frame)
		}
	})
	b.Run("on", func(b *testing.B) {
		s := newBenchSM(b)
		hm, err := healthmgr.New(healthmgr.Options{
			Topology: newHealthStubTopo(),
			Interval: 10 * time.Millisecond,
		})
		if err != nil {
			b.Fatal(err)
		}
		hm.Start()
		defer hm.Stop()
		frame := benchFrame(2, 8)
		b.SetBytes(int64(len(frame)))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			process(s, network.MsgData, frame)
		}
	})
}

// parallelPlan places 8 spouts on container 2 (tasks 0–7) and 8 bolts on
// container 1 (tasks 8–15): every frame ingested by container 1's Stream
// Manager has a local destination.
func parallelPlan() (*core.Topology, *core.PackingPlan) {
	topo := &core.Topology{
		Name: "par",
		Components: []core.ComponentSpec{
			{Name: "s", Kind: core.KindSpout, Parallelism: 8,
				Outputs: map[string][]string{"default": {"v"}}},
			{Name: "b", Kind: core.KindBolt, Parallelism: 8,
				Inputs: []core.InputSpec{{Component: "s", Grouping: core.GroupShuffle}}},
		},
	}
	req := core.Resource{CPU: 1, RAMMB: 128, DiskMB: 128}
	ask := core.Resource{CPU: 16, RAMMB: 8192, DiskMB: 8192}
	spouts := make([]core.InstancePlacement, 8)
	bolts := make([]core.InstancePlacement, 8)
	for i := 0; i < 8; i++ {
		spouts[i] = core.InstancePlacement{
			ID: core.InstanceID{Component: "s", ComponentIndex: int32(i), TaskID: int32(i)}, Resources: req}
		bolts[i] = core.InstancePlacement{
			ID: core.InstanceID{Component: "b", ComponentIndex: int32(i), TaskID: int32(8 + i)}, Resources: req}
	}
	plan := &core.PackingPlan{Topology: "par", Containers: []core.ContainerPlan{
		{ID: 1, Required: ask, Instances: bolts},
		{ID: 2, Required: ask, Instances: spouts},
	}}
	return topo, plan
}

// newParallelSM builds container 1's Stream Manager for parallelPlan, its
// worker running and every bolt task registered behind its own null conn.
// The returned delivered func counts frames handed to the conns.
func newParallelSM(tb testing.TB) (*StreamManager, func() int64) {
	tb.Helper()
	topo, packing := parallelPlan()
	cfg := core.NewConfig()
	cfg.StreamManagerOptimized = true
	pp, err := core.NewPhysicalPlan(topo, packing)
	if err != nil {
		tb.Fatal(err)
	}
	s, err := newCore(Options{Topology: "par", Container: 1, Cfg: cfg, Registry: metrics.NewRegistry()})
	if err != nil {
		tb.Fatal(err)
	}
	var conns []*nullConn
	s.mu.Lock()
	s.plan = pp
	for _, task := range pp.ContainerTasks(1) {
		c := &nullConn{}
		conns = append(conns, c)
		s.instances[task] = newOutbox(c, nil, s.onBytesSent)
	}
	s.publishRoutesLocked()
	s.mu.Unlock()
	tb.Cleanup(s.Stop)
	s.startWorker()
	delivered := func() int64 {
		var n int64
		for _, c := range conns {
			n += c.sends.Load()
		}
		return n
	}
	return s, delivered
}

// BenchmarkRouteParallel measures aggregate route throughput of the
// owned-frame ingest path with concurrent producers (RunParallel) feeding
// pre-batched local frames round-robin across the 8 bolt tasks into the
// one inbox and worker: the receive goroutines' contention on the inbox
// plus the worker's routing. Every frame pays the ingest copy into a
// pooled buffer; ns/op includes delivery (the loop waits until every
// frame reached a conn). It also reports p50/p99/p999 route latency from
// the histogram (enqueue→delivery handoff, sampled 1-in-8).
func BenchmarkRouteParallel(b *testing.B) {
	s, delivered := newParallelSM(b)
	var frames [8][]byte
	for i := range frames {
		frames[i] = benchFrame(int32(8+i), 8)
	}
	b.SetBytes(int64(len(frames[0])))
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			s.routeFrameOwned(network.MsgData, owned(frames[i&7]))
			i++
		}
	})
	for delivered() < int64(b.N) {
		runtime.Gosched()
	}
	b.StopTimer()
	b.ReportMetric(float64(s.mRouteLat.Quantile(0.50)), "p50-ns")
	b.ReportMetric(float64(s.mRouteLat.Quantile(0.99)), "p99-ns")
	b.ReportMetric(float64(s.mRouteLat.Quantile(0.999)), "p999-ns")
}

// BenchmarkOutboxDrain measures the outbox enqueue→drain pipeline against
// a null transport: the per-frame cost of handing a frame to the sender
// goroutine and delivering it.
func BenchmarkOutboxDrain(b *testing.B) {
	conn := &nullConn{}
	o := newOutbox(conn, nil, nil)
	defer o.close()
	payload := benchFrame(2, 8)
	b.SetBytes(int64(len(payload)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		o.enqueue(network.MsgData, payload)
	}
	// Wait for the drain to complete so ns/op includes delivery.
	for conn.sends.Load() < int64(b.N) {
	}
}

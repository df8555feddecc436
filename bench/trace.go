package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"slices"
	"sync"
	"time"

	heron "heron"
	emetrics "heron/internal/metrics"
)

// The traced run. Spans are recorded by the benchmark's own spouts and
// bolts around their calls into the engine's public surface; counts come
// from the engine's metric registries; CPU attribution from a profile of
// the window; the rest from the layer drives. Nothing in the engine is
// instrumented for it.

// layerMetrics is every per-layer metric with its unit. A traced run
// prints all of them; one with no work on the workload prints 0.
var layerMetrics = []struct{ name, unit string }{
	{"gen.late_p99_ms", "ms"},
	{"gen.replayed", "count"},
	{"baseline.single_thread_tps", "1/s"},
	{"baseline.ratio", "ratio"},
	{"instance.emit_ns_per_tuple", "ns"},
	{"instance.ack_ns_per_tuple", "ns"},
	{"instance.spout_idle_share", "share"},
	{"instance.bolt_user_share", "share"},
	{"latency.p99_ms", "ms"},
	{"datapath.transit_p50_ms", "ms"},
	{"datapath.transit_p99_ms", "ms"},
	{"stmgr.cache_drains_per_ktuple", "count"},
	{"stmgr.cache_depth_mean", "count"},
	{"stmgr.bytes_sent_per_tuple", "B"},
	{"stmgr.forwarded_share", "share"},
	{"stmgr.bp_asserted_share", "share"},
	{"stmgr.bp_transitions", "count"},
	{"stmgr.route_p50_us", "us"},
	{"stmgr.route_p99_us", "us"},
	{"tuple.wc.encode_ns", "ns"},
	{"tuple.wc.decode_ns", "ns"},
	{"tuple.wc.peekdest_ns", "ns"},
	{"tuple.wc.frame_walk_ns_per_tuple", "ns"},
	{"tuple.wc.bytes_per_tuple", "B"},
	{"tuple.etl.encode_ns", "ns"},
	{"tuple.etl.decode_ns", "ns"},
	{"tuple.etl.peekdest_ns", "ns"},
	{"tuple.etl.frame_walk_ns_per_tuple", "ns"},
	{"tuple.etl.bytes_per_tuple", "B"},
	{"network.inproc_frame_ns", "ns"},
	{"network.tcp_frame_ns", "ns"},
	{"network.ring_frame_ns", "ns"},
	{"network.tcp_rtt_us", "us"},
	{"acker.tree_ns", "ns"},
	{"acker.acks_routed_per_tuple", "count"},
	{"ackpath.return_p50_ms", "ms"},
	{"checkpoint.epochs_committed", "count"},
	{"checkpoint.duration_p50_ms", "ms"},
	{"checkpoint.size_bytes", "B"},
	{"checkpoint.encode_ns_per_key", "ns"},
	{"checkpoint.backend_save_ms", "ms"},
	{"setup.submit_ms", "ms"},
	{"setup.wait_running_ms", "ms"},
	{"setup.kill_ms", "ms"},
	{"statemgr.setget_ns", "ns"},
	{"metrics.observe_ns", "ns"},
	{"metrics.hdr_observe_ns", "ns"},
	{"metrics.snapshot_ms", "ms"},
	{"extsvc.kafka_fetch_share", "share"},
	{"extsvc.redis_write_share", "share"},
	{"user.cpu_share", "share"},
	{"engine.cpu_share", "share"},
	{"runtime.allocs_per_tuple", "count"},
	{"runtime.gc_cycles_per_mtuple", "count"},
	{"runtime.gc_cpu_share", "share"},
	{"runtime.heap_inuse_peak_mb", "MB"},
	{"runtime.goroutines_leaked", "count"},
	{"cpu.us_per_tuple", "us"},
	{"cpu.instance_share", "share"},
	{"cpu.tuple_share", "share"},
	{"cpu.network_share", "share"},
	{"cpu.stmgr_share", "share"},
	{"cpu.acker_share", "share"},
	{"cpu.checkpoint_share", "share"},
	{"cpu.metrics_share", "share"},
	{"cpu.control_share", "share"},
	{"cpu.user_share", "share"},
	{"cpu.runtime_gc_share", "share"},
	{"cpu.runtime_sched_share", "share"},
	{"cpu.syscall_share", "share"},
	{"cpu.other_share", "share"},
	{"trace.overhead_share", "share"},
}

var layerUnit = func() map[string]string {
	m := map[string]string{}
	for _, lm := range layerMetrics {
		m[lm.name] = lm.unit
	}
	return m
}()

// liveView merges the containers' live registries into the same typed
// view Handle.Metrics() serves, without the export interval's lag, so a
// difference of two views brackets the window exactly.
func liveView(h *heron.Handle) *emetrics.TopologyView {
	v := emetrics.NewView()
	for id, reg := range h.Registries() {
		s := reg.Snapshot(id)
		v.Add(&s)
	}
	return v
}

// maxGauge is the largest value of the named gauge across its tasks
// (TopologyView.Gauge sums, which is wrong for an epoch number).
func maxGauge(v *emetrics.TopologyView, name string) int64 {
	var m int64
	for id, val := range v.Gauges {
		if id.Name == name && val > m {
			m = val
		}
	}
	return m
}

// runtimeReading is the Go runtime's own accounting at one instant.
type runtimeReading struct {
	allocObjects, gcCycles uint64
	gcCPU                  float64
}

func readRuntime() runtimeReading {
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:objects"},
		{Name: "/gc/cycles/total:gc-cycles"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
	}
	metrics.Read(s)
	return runtimeReading{s[0].Value.Uint64(), s[1].Value.Uint64(), s[2].Value.Float64()}
}

// poller samples, ten times a second, what only has an instantaneous
// value: the stmgr cache depth gauge and the heap in use.
type poller struct {
	stop      chan struct{}
	wg        sync.WaitGroup
	depthSum  float64
	polls     int
	heapPeakB uint64
}

func startPoller(h *heron.Handle) *poller {
	p := &poller{stop: make(chan struct{})}
	heap := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
	p.wg.Add(1)
	go func() {
		defer p.wg.Done()
		tk := time.NewTicker(100 * time.Millisecond)
		defer tk.Stop()
		for {
			select {
			case <-p.stop:
				return
			case <-tk.C:
			}
			for id, reg := range h.Registries() {
				for _, g := range reg.Snapshot(id).Gauges {
					if g.Name == emetrics.MStmgrCacheDepth {
						p.depthSum += float64(g.Value)
					}
				}
			}
			p.polls++
			metrics.Read(heap)
			if b := heap[0].Value.Uint64(); b > p.heapPeakB {
				p.heapPeakB = b
			}
		}
	}()
	return p
}

func (p *poller) finish() {
	close(p.stop)
	p.wg.Wait()
}

// span sums over instance blocks.
func sumSpoutsF(ss []*spoutState, f func(*spoutState) int64) float64 {
	return float64(sumSpouts(ss, f))
}

func sumBoltsF(bs []*boltState, f func(*boltState) int64) float64 { return float64(sumBolts(bs, f)) }

// tail collects the samples each sampler wrote after from[i].
func tail(ss []*sampler, from []int64) []int64 {
	var out []int64
	for i, s := range ss {
		out = append(out, s.buf[from[i]:s.n.Load()]...)
	}
	slices.Sort(out)
	return out
}

func marks(ss []*sampler) []int64 {
	out := make([]int64, len(ss))
	for i, s := range ss {
		out[i] = s.n.Load()
	}
	return out
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// runTraced is the traced repetition: one set-up, a short untraced window
// on the same topology for comparison, then the traced window under a
// CPU profile, the audit, and the layer drives.
func runTraced(w *workload, seed int64, seconds int, tmp string, goroutinesBefore int) (*outcome, error) {
	o := &outcome{layers: map[string]float64{}}
	L := o.layers
	for _, m := range layerMetrics {
		L[m.name] = 0
	}
	l, err := start(w, seed, seconds)
	if err != nil {
		return nil, err
	}
	defer l.release()
	r := l.r

	preview := seconds / 3
	if preview < 2 {
		preview = 2
	}
	untraced, err := l.stats(l.measure(preview))
	if err != nil {
		l.abandon()
		return nil, fmt.Errorf("untraced comparison window: %w", err)
	}

	profile := filepath.Join(tmp, fmt.Sprintf("cpu-%s-%d.prof", w.name, os.Getpid()))
	pf, err := os.Create(profile)
	if err != nil {
		l.abandon()
		return nil, err
	}
	defer os.Remove(profile)

	var lateS, ackRetS, transitS []*sampler
	for _, s := range r.spouts {
		lateS, ackRetS = append(lateS, s.late), append(ackRetS, s.ackRet)
	}
	firstHop := r.bolts
	if w.etl {
		firstHop = r.mids
	}
	for _, b := range firstHop {
		transitS = append(transitS, b.transit)
	}
	late0, ackRet0, transit0 := marks(lateS), marks(ackRetS), marks(transitS)
	view0, rt0 := liveView(l.h), readRuntime()
	received0 := sumBoltsF(firstHop, func(b *boltState) int64 { return b.received.Load() })
	emitted0 := r.emittedTotal()
	poll := startPoller(l.h)
	if err := pprof.StartCPUProfile(pf); err != nil {
		poll.finish()
		pf.Close()
		l.abandon()
		return nil, err
	}
	r.trace.Store(true)
	ticks := l.measure(seconds)
	r.trace.Store(false)
	pprof.StopCPUProfile()
	poll.finish()
	if err := pf.Close(); err != nil {
		l.abandon()
		return nil, err
	}
	view1, rt1 := liveView(l.h), readRuntime()
	received1 := sumBoltsF(firstHop, func(b *boltState) int64 { return b.received.Load() })
	emitted1 := r.emittedTotal()
	traced, statErr := l.stats(ticks)

	t0 := time.Now()
	l.h.Metrics()
	L["metrics.snapshot_ms"] = float64(time.Since(t0).Nanoseconds()) / 1e6

	kill, err := l.finish(o)
	if err != nil {
		return nil, err
	}
	if statErr != nil {
		return nil, statErr
	}
	// Executor and transport goroutines unwind just after Kill returns.
	for deadline := time.Now().Add(2 * time.Second); runtime.NumGoroutine() > goroutinesBefore && time.Now().Before(deadline); {
		time.Sleep(10 * time.Millisecond)
	}
	L["runtime.goroutines_leaked"] = float64(runtime.NumGoroutine() - goroutinesBefore)

	first, last := ticks[0], ticks[len(ticks)-1]
	wall := float64(last.t - first.t)    // ns
	cpu := float64(last.cpu - first.cpu) // ns
	tuples := float64(traced.tuples)     // delivered in the traced window
	nSpouts, nBolts := float64(len(r.spouts)), float64(len(r.bolts))
	delta := func(name string) float64 { return float64(view1.Counter(name, "") - view0.Counter(name, "")) }

	// generator
	if w.ratePerSpout > 0 {
		L["gen.late_p99_ms"] = float64(percentile(tail(lateS, late0), 0.99)) / 1e6
	}
	L["gen.replayed"] = float64(r.replayedTotal())
	L["baseline.single_thread_tps"] = o.ref.tps()
	L["baseline.ratio"] = ratio(traced.throughput, o.ref.tps())

	// instance: spans around the calls into the collectors
	emitNs := sumSpoutsF(r.spouts, func(s *spoutState) int64 { return s.emitNs.Load() })
	emitN := sumSpoutsF(r.spouts, func(s *spoutState) int64 { return s.emitN.Load() })
	ackNs := sumBoltsF(firstHop, func(b *boltState) int64 { return b.ackNs.Load() })
	ackN := sumBoltsF(firstHop, func(b *boltState) int64 { return b.ackN.Load() })
	L["instance.emit_ns_per_tuple"] = ratio(emitNs, emitN)
	L["instance.ack_ns_per_tuple"] = ratio(ackNs, ackN)
	L["instance.spout_idle_share"] = sumSpoutsF(r.spouts, func(s *spoutState) int64 { return s.idleNs.Load() }) / (nSpouts * wall)
	// Time inside Execute. WordCount sinks time the traced tuples only,
	// so their sum is scaled to every tuple received in the window; the
	// ETL bolts time every call.
	userNs := sumBoltsF(r.bolts, func(b *boltState) int64 { return b.userNs.Load() })
	operators := nBolts
	if w.etl {
		userNs += sumBoltsF(r.mids, func(b *boltState) int64 { return b.userNs.Load() })
		operators += float64(len(r.mids))
	} else {
		spanN := sumBoltsF(r.bolts, func(b *boltState) int64 { return b.spanN.Load() })
		userNs *= ratio(received1-received0, spanN)
		ackNs *= ratio(received1-received0, spanN)
	}
	L["instance.bolt_user_share"] = userNs / (operators * wall)

	// The latency tail and CPU per tuple are per-layer metrics because their
	// run-to-run spread is above 0.25 or close to it, the tail on
	// wc_ckpt_paced and the CPU on the paced workloads (see README.md).
	L["latency.p99_ms"] = traced.p99
	L["cpu.us_per_tuple"] = traced.cpuUs

	// data path as seen from outside
	transit := tail(transitS, transit0)
	L["datapath.transit_p50_ms"] = float64(percentile(transit, 0.50)) / 1e6
	L["datapath.transit_p99_ms"] = float64(percentile(transit, 0.99)) / 1e6

	// stmgr, acker and checkpoint counts from the engine's registries
	L["stmgr.cache_drains_per_ktuple"] = ratio(delta(emetrics.MStmgrCacheDrains), tuples/1e3)
	L["stmgr.cache_depth_mean"] = ratio(poll.depthSum, float64(poll.polls))
	L["stmgr.bytes_sent_per_tuple"] = ratio(delta(emetrics.MStmgrBytesSent), tuples)
	L["stmgr.forwarded_share"] = ratio(delta(emetrics.MStmgrTuplesFwd), delta(emetrics.MStmgrTuplesIn))
	L["stmgr.bp_asserted_share"] = delta(emetrics.MStmgrBPAssertedTime) / (nSpouts * wall) // one stmgr per container, one container per spout
	L["stmgr.bp_transitions"] = delta(emetrics.MStmgrBPTransitions)
	route := view1.Histogram(emetrics.MStmgrRouteLatency, "")
	L["stmgr.route_p50_us"] = float64(route.Quantile(0.50)) / 1e3
	L["stmgr.route_p99_us"] = float64(route.Quantile(0.99)) / 1e3
	L["acker.acks_routed_per_tuple"] = ratio(delta(emetrics.MStmgrAcksRouted), tuples)
	L["ackpath.return_p50_ms"] = float64(percentile(tail(ackRetS, ackRet0), 0.50)) / 1e6
	L["checkpoint.epochs_committed"] = float64(maxGauge(view1, emetrics.MCheckpointEpoch) - maxGauge(view0, emetrics.MCheckpointEpoch))
	L["checkpoint.duration_p50_ms"] = float64(view1.Histogram(emetrics.MCheckpointDuration, "").Quantile(0.50)) / 1e6
	L["checkpoint.size_bytes"] = float64(view1.Histogram(emetrics.MCheckpointSize, "").Quantile(0.50))

	// control plane
	L["setup.submit_ms"] = float64(l.submit.Nanoseconds()) / 1e6
	L["setup.wait_running_ms"] = float64(l.waitRunning.Nanoseconds()) / 1e6
	L["setup.kill_ms"] = float64(kill.Nanoseconds()) / 1e6

	// The Fig 14 split: wall time inside the services and the user's
	// code over process CPU; the engine is the remainder. A spout's user
	// time is NextTuple minus what it spent inside Emit and Poll.
	fetchNs := sumSpoutsF(r.spouts, func(s *spoutState) int64 { return s.fetchNs.Load() })
	writeNs := sumBoltsF(r.bolts, func(b *boltState) int64 { return b.writeNs.Load() })
	nextNs := sumSpoutsF(r.spouts, func(s *spoutState) int64 { return s.nextNs.Load() })
	emitAll := emitNs * ratio(float64(emitted1-emitted0), emitN)
	user := userNs - ackNs + nextNs - emitAll - fetchNs
	if w.etl {
		user = userNs + nextNs - emitAll - fetchNs // ETL bolts stop their span before Emit and Ack
	}
	L["extsvc.kafka_fetch_share"] = ratio(fetchNs, cpu)
	L["extsvc.redis_write_share"] = ratio(writeNs, cpu)
	L["user.cpu_share"] = ratio(user, cpu)
	if e := 1 - L["extsvc.kafka_fetch_share"] - L["extsvc.redis_write_share"] - L["user.cpu_share"]; e > 0 {
		L["engine.cpu_share"] = e
	}

	// Go runtime
	L["runtime.allocs_per_tuple"] = ratio(float64(rt1.allocObjects-rt0.allocObjects), tuples)
	L["runtime.gc_cycles_per_mtuple"] = ratio(float64(rt1.gcCycles-rt0.gcCycles), tuples/1e6)
	L["runtime.gc_cpu_share"] = ratio((rt1.gcCPU-rt0.gcCPU)*1e9, cpu)
	L["runtime.heap_inuse_peak_mb"] = float64(poll.heapPeakB) / (1 << 20)

	L["trace.overhead_share"] = ratio(untraced.throughput-traced.throughput, untraced.throughput)
	fmt.Printf("  untraced %d s: %.0f tuples/s; traced %d s: %.0f tuples/s, p50 %.3f ms\n  traced window: %s\n",
		preview, untraced.throughput, seconds, traced.throughput, traced.p50, traced.describe())

	if err := runDrives(L); err != nil {
		return nil, err
	}
	if err := cpuShares(profile, L); err != nil {
		return nil, err
	}
	return o, nil
}

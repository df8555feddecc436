package main

import (
	"fmt"
	"runtime"
	"runtime/metrics"
	"slices"
	"sync/atomic"
	"syscall"
	"time"

	heron "heron"
	"heron/internal/checkpoint"
	emetrics "heron/internal/metrics"
	"heron/internal/statemgr"
)

const (
	setupRepeats = 3 // set-ups per untraced run; setup_s is their median
	warmTimeout  = 60 * time.Second
	drainTimeout = 30 * time.Second
	subWindow    = 250 * time.Millisecond
)

var topologySeq atomic.Int64

// live is one running topology, warmed up.
type live struct {
	r           *rig
	h           *heron.Handle
	root        string
	setup       time.Duration // input generation → end of the warm-up
	submit      time.Duration
	waitRunning time.Duration
}

// start performs one complete set-up: generate the inputs from seed,
// submit, wait for the plan, and run the fixed-count warm-up.
func start(w *workload, seed int64, seconds int) (*live, error) {
	t0 := time.Now()
	dict, words := boxedDictionary()
	r, err := newRig(w, seed, seconds, dict, words)
	if err != nil {
		return nil, err
	}
	if w.etl {
		r.etl = newETLInput(seed)
	}
	name := fmt.Sprintf("bench-%s-%d", w.name, topologySeq.Add(1))
	spec, err := r.spec(name)
	if err != nil {
		r.free()
		return nil, err
	}
	cfg := heron.NewConfig()
	cfg.NumContainers = len(r.spouts)
	cfg.StateRoot = "/" + name
	if w.configure != nil {
		w.configure(cfg)
	}
	statemgr.ResetSharedStore(cfg.StateRoot)

	l := &live{r: r, root: cfg.StateRoot}
	t1 := time.Now()
	if l.h, err = heron.Submit(spec, cfg); err != nil {
		r.free()
		return nil, fmt.Errorf("submit %s: %w", name, err)
	}
	l.submit = time.Since(t1)
	t2 := time.Now()
	if err := l.h.WaitRunning(30 * time.Second); err != nil {
		l.abandon()
		return nil, err
	}
	l.waitRunning = time.Since(t2)

	// Generators hold until every instance has been opened. An instance
	// is opened only after its Stream Manager has applied the plan, and a
	// Stream Manager that has no plan yet drops the data frames a faster
	// peer sends it (WaitRunning returns when the plan has been sent, not
	// applied), so emitting earlier loses the first tuples now and then.
	instances := int32(len(r.spouts) + len(r.bolts) + len(r.mids))
	for deadline := time.Now().Add(30 * time.Second); r.opened.Load() < instances; {
		if time.Now().After(deadline) {
			l.abandon()
			return nil, fmt.Errorf("%s: %d of %d instances opened in 30 s", w.name, r.opened.Load(), instances)
		}
		time.Sleep(200 * time.Microsecond)
	}
	r.phase.Store(genEmit)

	warm := w.warmTuples * int64(len(r.spouts))
	for deadline := time.Now().Add(warmTimeout); r.delivered() < warm; {
		if time.Now().After(deadline) {
			l.abandon()
			return nil, fmt.Errorf("%s: warm-up delivered %d of %d tuples in %v", w.name, r.delivered(), warm, warmTimeout)
		}
		time.Sleep(500 * time.Microsecond)
	}
	l.setup = time.Since(t0)
	return l, nil
}

// abandon tears down after a failed set-up.
func (l *live) abandon() {
	l.r.phase.Store(genStop)
	_ = l.h.Kill() // already failing; the first error is the one reported
	l.release()
}

func (l *live) release() {
	statemgr.ResetSharedStore(l.root)
	checkpoint.ResetSharedMemory(l.root)
	l.r.free()
}

// drain stops the generators and waits until every emitted tuple is
// accounted for. It returns the number still undelivered at the timeout.
func (l *live) drain(timeout time.Duration) int64 {
	r := l.r
	r.phase.Store(genStop)
	for deadline := time.Now().Add(timeout); !r.drained(); {
		if time.Now().After(deadline) {
			break
		}
		time.Sleep(time.Millisecond)
	}
	undelivered := r.freshTotal() + r.replayedTotal() - r.delivered() - r.failedTotal()
	if undelivered != 0 {
		fmt.Printf("  drain: %d tuples undelivered after %v (emitted %d, first operator saw %d and dropped %d, last operator saw %d)\n",
			undelivered, timeout, r.emittedTotal(),
			sumBolts(r.mids, func(b *boltState) int64 { return b.received.Load() }),
			sumBolts(r.mids, func(b *boltState) int64 { return b.dropped.Load() }), r.receivedTotal())
		// Which layer holds them: the engine's own counts, per task.
		for _, c := range liveView(l.h).Dump().Counters {
			switch c.Name {
			case emetrics.MEmitCount, emetrics.MExecuteCount, emetrics.MStmgrTuplesIn, emetrics.MStmgrTuplesFwd:
				fmt.Printf("    %s %s/%d = %d\n", c.Name, c.Component, c.Task, c.Value)
			}
		}
	}
	return undelivered
}

// tick is the controller's reading at one sub-window boundary.
type tick struct {
	t         int64
	delivered int64
	cpu       time.Duration
	alloc     uint64
	samples   []int64 // per latency sampler: samples written so far
}

// processCPU is user+system CPU of the process from getrusage, whose sum
// comes from the scheduler's nanosecond run-time accounting.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

var allocSample = []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}

// heapAllocated is MemStats.TotalAlloc read without stopping the world.
func heapAllocated() uint64 {
	metrics.Read(allocSample)
	return allocSample[0].Value.Uint64()
}

// latencySamplers returns the buffers that hold the workload's
// end-to-end latency samples.
func (r *rig) latencySamplers() []*sampler {
	var out []*sampler
	if r.w.acked {
		for _, s := range r.spouts {
			out = append(out, s.lat)
		}
		return out
	}
	for _, b := range r.bolts {
		out = append(out, b.lat)
	}
	return out
}

func (l *live) read(lat []*sampler) tick {
	return tick{t: nowNs(), delivered: l.r.delivered(), cpu: processCPU(), alloc: heapAllocated(), samples: marks(lat)}
}

// measure reads a tick at every sub-window boundary for seconds seconds.
func (l *live) measure(seconds int) []tick {
	lat := l.r.latencySamplers()
	n := seconds * int(time.Second/subWindow)
	ticks := make([]tick, 0, n+1)
	ticks = append(ticks, l.read(lat))
	for i := 1; i <= n; i++ {
		time.Sleep(time.Duration(ticks[0].t + int64(i)*int64(subWindow) - nowNs()))
		ticks = append(ticks, l.read(lat))
	}
	return ticks
}

// windowStats are the metrics of one measured window, each taken over the
// whole window: tuples delivered ÷ window, and exact percentiles of every
// latency sample written in it. A stall of the machine or of the engine is
// therefore inside every number. The sub-windows only describe how the
// window went: the median sub-window rate (what the run would have
// reported had nothing stalled) and the slowest second.
type windowStats struct {
	throughput float64 // tuples/s
	p50, p99   float64 // ms
	cpuUs      float64 // µs/tuple
	allocB     float64 // B/tuple
	tuples     int64
	samples    int

	subMedian   float64 // tuples/s: median over the sub-windows
	worstSecond float64 // tuples/s: the slowest whole second
	empty       int     // sub-windows in which nothing was delivered
	subWindows  int
}

// maxEmptyShare is the share of sub-windows that may deliver nothing
// before the run is refused: beyond it the window timed a stall of the
// machine, not the engine.
const maxEmptyShare = 0.1

func (l *live) stats(ticks []tick) (windowStats, error) {
	lat := l.r.latencySamplers()
	first, last := ticks[0], ticks[len(ticks)-1]
	ws := windowStats{tuples: last.delivered - first.delivered, subWindows: len(ticks) - 1}
	perSecond := int(time.Second / subWindow)
	var rates []float64
	for i := 1; i < len(ticks); i++ {
		a, b := ticks[i-1], ticks[i]
		rates = append(rates, float64(b.delivered-a.delivered)/(float64(b.t-a.t)/1e9))
		if b.delivered == a.delivered {
			ws.empty++
		}
		if i >= perSecond {
			a = ticks[i-perSecond]
			if r := float64(b.delivered-a.delivered) / (float64(b.t-a.t) / 1e9); i == perSecond || r < ws.worstSecond {
				ws.worstSecond = r
			}
		}
	}
	ws.subMedian = median(rates)
	if float64(ws.empty) > maxEmptyShare*float64(ws.subWindows) {
		return ws, fmt.Errorf("%d of %d sub-windows delivered nothing", ws.empty, ws.subWindows)
	}
	for _, s := range lat {
		if d := s.dropped.Load(); d > 0 {
			return ws, fmt.Errorf("latency sample buffer overflowed by %d samples", d)
		}
	}
	var all []int64
	for j, s := range lat {
		all = append(all, s.buf[first.samples[j]:last.samples[j]]...)
	}
	if ws.tuples <= 0 || len(all) == 0 {
		return ws, fmt.Errorf("the window delivered %d tuples and %d latency samples", ws.tuples, len(all))
	}
	slices.Sort(all)
	ws.samples = len(all)
	ws.throughput = float64(ws.tuples) / (float64(last.t-first.t) / 1e9)
	ws.p50 = float64(percentile(all, 0.50)) / 1e6
	ws.p99 = float64(percentile(all, 0.99)) / 1e6
	ws.cpuUs = float64(last.cpu-first.cpu) / 1e3 / float64(ws.tuples)
	ws.allocB = float64(last.alloc-first.alloc) / float64(ws.tuples)
	return ws, nil
}

// describe is the informational line about how the window went.
func (ws windowStats) describe() string {
	return fmt.Sprintf("%d tuples, %d latency samples; sub-window median %.0f tuples/s, slowest second %.0f tuples/s (%.2f of the mean), %d of %d sub-windows empty",
		ws.tuples, ws.samples, ws.subMedian, ws.worstSecond, ws.worstSecond/ws.throughput, ws.empty, ws.subWindows)
}

// outcome is what one repetition reports.
type outcome struct {
	attempted, delivered, failed int64
	auditErr                     error
	ref                          *reference
	e2e                          map[string]float64
	layers                       map[string]float64
}

// finish drains, kills and audits the topology.
func (l *live) finish(o *outcome) (killTime time.Duration, err error) {
	r := l.r
	undelivered := l.drain(drainTimeout)
	emitted := make([]int64, len(r.spouts))
	for i, s := range r.spouts {
		emitted[i] = s.emitted.Load()
	}
	o.attempted = r.freshTotal()
	o.failed = undelivered + r.failedTotal()
	o.delivered = o.attempted - undelivered
	if r.w.acked {
		o.delivered = r.delivered()
	}

	t0 := time.Now()
	if err := l.h.Kill(); err != nil {
		return 0, fmt.Errorf("kill: %w", err)
	}
	killTime = time.Since(t0)

	// Only now: Kill has joined the executors, so the sinks' maps are
	// quiescent and the aggregators' Cleanup has flushed its tail.
	rule := auditRule{undelivered: undelivered, replayed: r.replayedTotal(), atLeast: r.w.acked}
	var out got
	if r.w.etl {
		o.ref = foldEvents(r.etl.broker, emitted)
		redis := map[string]int64{}
		for k := range o.ref.want {
			if v, ok := r.etl.redis.Get(k); ok {
				redis[k] = v
			}
		}
		out = got{redis}
		if n := r.etl.redis.Keys(); n != len(redis) {
			o.auditErr = fmt.Errorf("redis holds %d keys, %d of them in the reference", n, len(redis))
		}
	} else {
		o.ref = foldWords(r.dict, r.seed, emitted)
		rule.onePerTask, rule.valuesAreCounts = true, true
		for _, s := range r.sinks {
			out = append(out, s.counts)
		}
	}
	if o.auditErr == nil {
		o.auditErr = compare(o.ref, out, rule)
	}
	return killTime, nil
}

// runUntraced is one repetition of the end-to-end measurement: several
// complete set-ups, the last of which runs on into the measured window.
func runUntraced(w *workload, seed int64, seconds int) (*outcome, error) {
	o := &outcome{e2e: map[string]float64{}}
	var setups []float64
	var l *live
	for i := 0; i < setupRepeats; i++ {
		if l != nil {
			l.drain(drainTimeout)
			if err := l.h.Kill(); err != nil {
				return nil, fmt.Errorf("kill: %w", err)
			}
			l.release()
			runtime.GC()
		}
		var err error
		if l, err = start(w, seed, seconds); err != nil {
			return nil, err
		}
		setups = append(setups, l.setup.Seconds())
	}
	defer l.release()
	ws, statErr := l.stats(l.measure(seconds))
	if _, err := l.finish(o); err != nil {
		return nil, err
	}
	if statErr != nil {
		return nil, statErr
	}
	o.e2e["throughput_tps"] = ws.throughput
	o.e2e["latency_p50_ms"] = ws.p50
	o.e2e["alloc_b_per_tuple"] = ws.allocB
	o.e2e["setup_s"] = median(setups)
	fmt.Printf("  window: %s\n  informational: p99 %.3f ms, %.3f us CPU/tuple; set-ups %.3f s\n",
		ws.describe(), ws.p99, ws.cpuUs, setups)
	return o, nil
}

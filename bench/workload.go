package main

import (
	"fmt"
	"runtime"
	"sync/atomic"
	"time"

	heron "heron"
	"heron/api"
	"heron/internal/workloads"
)

// dictWords is the WordCount dictionary: 45 000 words, so that a sink's
// keyed state is a non-trivial snapshot.
const dictWords = 45_000

// workload is one named set of inputs and engine settings. Every knob
// not set here stays at heron.NewConfig()'s default.
type workload struct {
	name string
	why  string

	etl          bool
	acked        bool  // AckingEnabled; latency ends at the spout's Ack callback
	ratePerSpout int   // open loop at this many tuples/s per spout; 0 = closed loop
	window       int64 // closed loop without acking: in-flight bound
	warmTuples   int64 // per spout: fixed-count warm-up, delivered tuples
	configure    func(cfg *heron.Config)
}

const (
	saturateWindow  = 8192
	maxSpoutPending = 1000
	ckptInterval    = 250 * time.Millisecond
)

var allWorkloads = []*workload{
	{
		name: "wc_saturate",
		why: "WordCount, acks off, closed loop at saturation (paper Figs 5-6): instance emit, tuple codec and " +
			"stmgr route/cache/outbox do nearly all the work; acker, checkpoint, tcp and extsvc do none",
		window:     saturateWindow,
		warmTuples: 1_000_000,
	},
	{
		name: "wc_acked",
		why: "same topology with acking, max-spout-pending 1000 (Figs 7-9): differs from wc_saturate only by the " +
			"ack path (acker XOR trees, ack frames, spout pending map), so the pair isolates that layer",
		acked:      true,
		warmTuples: 500_000,
		configure: func(cfg *heron.Config) {
			cfg.AckingEnabled = true
			cfg.MaxSpoutPending = maxSpoutPending
		},
	},
	{
		name: "wc_ckpt_paced",
		why: "stateful WordCount over tcp, 250 ms checkpoints, open loop at about 30% of capacity: the only " +
			"workload on markers, barrier alignment, snapshots, tcp and timer-triggered cache drains",
		ratePerSpout: 100_000,
		warmTuples:   200_000,
		configure: func(cfg *heron.Config) {
			cfg.CheckpointInterval = ckptInterval
			cfg.StateBackend = "memory"
			cfg.Transport = "tcp"
		},
	},
	{
		name: "etl_paced",
		why: "the Fig 14 pipeline (kafkasim, JSON filter, per-user aggregate, redissim; 400 B events), open loop: " +
			"user logic dominates CPU, so data-path changes must leave throughput and latency unmoved here",
		etl:          true,
		ratePerSpout: 25_000,
		warmTuples:   50_000,
	},
}

func workloadByName(name string) (*workload, error) {
	for _, w := range allWorkloads {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// parallelism is 2 per component, or nproc on a smaller machine.
func parallelism() int {
	if n := runtime.NumCPU(); n < 2 {
		return n
	}
	return 2
}

// newRig allocates the shared state of one topology: instance blocks and
// sample buffers sized for seconds of measuring plus warm-up and drain.
func newRig(w *workload, seed int64, seconds int, dict []string, words []any) (*rig, error) {
	par := parallelism()
	r := &rig{w: w, seed: seed, dict: dict, words: words, window: w.window}
	// Capacity: samples arrive at most at rate/sampleEvery per instance;
	// closed loops are bounded by what this engine has ever reached.
	perInstance := 4_000_000
	if w.ratePerSpout > 0 {
		perInstance = w.ratePerSpout * 2
	}
	capacity := perInstance * (seconds + 20) / sampleEvery
	if w.etl {
		capacity *= sampleEvery // the aggregator samples every kept event
	}
	newS := func() (*sampler, error) { return newSampler(capacity) }
	for i := 0; i < par; i++ {
		sp, bo := &spoutState{}, &boltState{}
		var err error
		for _, dst := range []**sampler{&sp.lat, &sp.late, &sp.ackRet, &bo.lat, &bo.transit} {
			if *dst, err = newS(); err != nil {
				r.free()
				return nil, err
			}
		}
		r.spouts, r.bolts = append(r.spouts, sp), append(r.bolts, bo)
		if w.etl {
			mid := &boltState{}
			if mid.transit, err = newS(); err != nil {
				r.free()
				return nil, err
			}
			r.mids = append(r.mids, mid)
		}
		r.ackCall = append(r.ackCall, make([]atomic.Int64, pendingRing))
	}
	return r, nil
}

func (r *rig) free() {
	for _, s := range r.spouts {
		s.lat.free()
		s.late.free()
		s.ackRet.free()
	}
	for _, b := range append(append([]*boltState(nil), r.bolts...), r.mids...) {
		b.lat.free()
		b.transit.free()
	}
}

// spec builds the workload's topology around r.
func (r *rig) spec(name string) (*api.Spec, error) {
	par := len(r.spouts)
	b := api.NewTopologyBuilder(name)
	if r.w.etl {
		b.SetSpout("kafka", func() api.Spout { return &kafkaSpout{r: r} }, par).OutputFields("event", "stamp")
		b.SetBolt("filter", func() api.Bolt { return &filterBolt{r: r} }, par).
			ShuffleGrouping("kafka", "").OutputFields("user", "amount", "stamp")
		b.SetBolt("aggregate", func() api.Bolt { return &aggBolt{r: r} }, par).
			FieldsGrouping("filter", "", "user")
		return b.Build()
	}
	b.SetSpout("word", func() api.Spout { return &wordSpout{r: r} }, par).OutputFields("word", "stamp")
	b.SetBolt("count", func() api.Bolt { return &wcSink{r: r} }, par).FieldsGrouping("word", "", "word")
	return b.Build()
}

// boxedDictionary returns the dictionary and the same words pre-boxed.
func boxedDictionary() ([]string, []any) {
	dict := workloads.Dictionary(dictWords)
	words := make([]any, len(dict))
	for i, w := range dict {
		words[i] = w
	}
	return dict, words
}

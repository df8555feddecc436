package main

import (
	"encoding/json"
	"fmt"
	"strings"
	"time"

	"heron/api"
	"heron/internal/extsvc/kafkasim"
	"heron/internal/extsvc/redissim"
	"heron/internal/workloads"
)

// The Fig 14 pipeline: kafkasim spout → JSON filter → per-user aggregate →
// redissim. The operators repeat internal/workloads' ETL logic with one
// addition, the stamp that rides from the spout to the Redis flush.

const (
	etlPartitions   = 8
	etlPerPartition = 8192 // 64 Ki events ≈ 26 MB of JSON; consumers loop over them
	etlUsers        = 10_000
	etlPollBatch    = 512
	etlFlushEvery   = 100
	etlKeepType     = "click"
)

var etlTypes = [...]string{etlKeepType, "view", "scroll", "hover"}

// etlInput is the external world of one ETL topology.
type etlInput struct {
	broker *kafkasim.Broker
	redis  *redissim.Server
}

// newETLInput preloads the broker with events drawn from seed.
func newETLInput(seed int64) *etlInput {
	in := &etlInput{broker: kafkasim.NewBroker(etlPartitions), redis: redissim.NewServer(8)}
	rng := newSplitmix(seed, -2)
	in.broker.Preload(etlPerPartition, func(part, i int) ([]byte, []byte) {
		user, typ, amount := rng.intn(etlUsers), etlTypes[rng.intn(len(etlTypes))], int64(rng.intn(500))
		return []byte(fmt.Sprintf("k%d", i)), workloads.EventValue(user, typ, amount)
	})
	return in
}

// event is the part of workloads.EventValue's JSON the pipeline reads.
type event struct {
	User   string `json:"user"`
	Type   string `json:"type"`
	Amount int64  `json:"amount"`
}

const etlProbe = `"type":"` + etlKeepType + `"`

// parseKept is the filter's user logic: a substring probe rejects most
// events and survivors pay a full JSON parse.
func parseKept(raw string) (user string, amount int64, keep bool) {
	if !strings.Contains(raw, etlProbe) {
		return "", 0, false
	}
	var e event
	if err := json.Unmarshal([]byte(raw), &e); err != nil || e.User == "" || e.Type != etlKeepType {
		return "", 0, false
	}
	return e.User, e.Amount, true
}

// kafkaSpout emits the broker's events on an open-loop schedule.
type kafkaSpout struct {
	spoutSpans
	r        *rig
	idx      int
	out      api.SpoutCollector
	consumer *kafkasim.Consumer
	buffered []kafkasim.Record
	vals     [2]any
	interval int64
	n        int64
}

func newLoopConsumer(b *kafkasim.Broker, idx, n int) *kafkasim.Consumer {
	c := kafkasim.AssignAll(b, idx, n)
	c.Loop = true
	return c
}

func (s *kafkaSpout) Open(ctx api.TopologyContext, out api.SpoutCollector) error {
	s.idx = int(ctx.ComponentIndex())
	if s.idx >= len(s.r.spouts) {
		return fmt.Errorf("bench: spout index %d outside the %d planned", s.idx, len(s.r.spouts))
	}
	s.me = s.r.spouts[s.idx]
	s.out = out
	s.consumer = newLoopConsumer(s.r.etl.broker, s.idx, len(s.r.spouts))
	s.interval = int64(time.Second) / int64(s.r.w.ratePerSpout)
	s.r.opened.Add(1)
	return nil
}

func (s *kafkaSpout) NextTuple() bool {
	t := nowNs()
	s.enter(s.r, t)
	ok := s.emitDue(t)
	s.exit(t)
	return ok
}

func (s *kafkaSpout) emitDue(t int64) bool {
	if !s.r.mayEmit(s.me) {
		return false
	}
	if s.n == 0 {
		s.me.startDue = t
	}
	due := s.me.startDue + s.n*s.interval
	if due > t {
		return false
	}
	var fresh int64
	for ; fresh < emitBatch && due <= t; fresh++ {
		if len(s.buffered) == 0 {
			t0 := nowNs()
			s.buffered = s.consumer.Poll(etlPollBatch)
			if s.traced {
				s.me.fetchNs.Add(nowNs() - t0)
			}
		}
		rec := s.buffered[0]
		s.buffered = s.buffered[1:]
		s.vals[0] = string(rec.Value)
		if s.n%sampleEvery == 4 {
			s.me.late.add(t - due)
		}
		if s.traced && s.n%sampleEvery == 0 {
			t0 := nowNs()
			s.vals[1] = tracedStamp(t0, s.idx, 0)
			s.timedEmit(s.out, nil, s.vals[:], t0)
		} else {
			s.vals[1] = stamp(due)
			s.out.Emit("", nil, s.vals[:]...)
		}
		s.n++
		due += s.interval
	}
	s.me.emitted.Add(fresh)
	return true
}

func (s *kafkaSpout) Ack(any)      {}
func (s *kafkaSpout) Fail(any)     {}
func (s *kafkaSpout) Close() error { return nil }

// filterBolt keeps the click events and forwards (user, amount, stamp).
type filterBolt struct {
	r    *rig
	me   *boltState
	out  api.BoltCollector
	vals [3]any
}

func (b *filterBolt) Prepare(ctx api.TopologyContext, out api.BoltCollector) error {
	idx := int(ctx.ComponentIndex())
	if idx >= len(b.r.mids) {
		return fmt.Errorf("bench: filter index %d outside the %d planned", idx, len(b.r.mids))
	}
	b.me, b.out = b.r.mids[idx], out
	b.r.opened.Add(1)
	return nil
}

func (b *filterBolt) Execute(t api.Tuple) error {
	st := t.Int(1)
	traced := b.r.trace.Load()
	var t0 int64
	if traced {
		t0 = nowNs()
		if st&stampTraced != 0 {
			b.me.transit.add(sinceStamp(t0, st))
		}
	}
	user, amount, keep := parseKept(t.String(0))
	if traced {
		b.me.userNs.Add(nowNs() - t0)
		b.me.spanN.Add(1)
	}
	if keep {
		b.vals[0], b.vals[1], b.vals[2] = user, amount, st
		b.out.Emit("", nil, b.vals[:]...)
	} else {
		b.me.dropped.Add(1)
	}
	if traced && st&stampTraced != 0 {
		t1 := nowNs()
		b.out.Ack(t)
		b.me.ackNs.Add(nowNs() - t1)
		b.me.ackN.Add(1)
	} else {
		b.out.Ack(t)
	}
	b.me.received.Add(1)
	return nil
}

func (b *filterBolt) Cleanup() error { return nil }

// aggBolt sums amounts per user and writes the sums to Redis through a
// pipelined client every etlFlushEvery inputs. An event's latency ends at
// the flush that makes its aggregate visible.
type aggBolt struct {
	r      *rig
	me     *boltState
	out    api.BoltCollector
	client *redissim.Client
	acc    map[string]int64
	since  int
	due    []int64 // due times of the events folded since the last flush
}

func (b *aggBolt) Prepare(ctx api.TopologyContext, out api.BoltCollector) error {
	idx := int(ctx.ComponentIndex())
	if idx >= len(b.r.bolts) {
		return fmt.Errorf("bench: aggregator index %d outside the %d planned", idx, len(b.r.bolts))
	}
	b.me, b.out = b.r.bolts[idx], out
	b.client = redissim.NewClient(b.r.etl.redis)
	b.acc = map[string]int64{}
	b.due = make([]int64, 0, etlFlushEvery)
	b.r.opened.Add(1)
	return nil
}

func (b *aggBolt) Execute(t api.Tuple) error {
	traced := b.r.trace.Load()
	var t0 int64
	if traced {
		t0 = nowNs()
	}
	b.acc[t.String(0)] += t.Int(1)
	b.since++
	// A traced tuple's stamp is its emit time, not its due time.
	if st := t.Int(2); st&stampTraced == 0 {
		b.due = append(b.due, stampNs(st))
	}
	if traced {
		b.me.userNs.Add(nowNs() - t0)
		b.me.spanN.Add(1)
	}
	if b.since >= etlFlushEvery {
		b.flush(traced)
	}
	b.out.Ack(t)
	b.me.received.Add(1)
	return nil
}

func (b *aggBolt) flush(traced bool) {
	t0 := nowNs()
	for user, sum := range b.acc {
		b.client.IncrBy("agg:"+user, sum)
		delete(b.acc, user)
	}
	_ = b.client.Flush() // redissim's in-process pipeline cannot fail
	t1 := nowNs()
	for _, due := range b.due {
		b.me.lat.add(sinceStamp(t1, due))
	}
	b.due = b.due[:0]
	b.since = 0
	if traced {
		b.me.writeNs.Add(t1 - t0)
	}
}

// Cleanup writes the tail; the audit reads Redis after Kill has returned.
func (b *aggBolt) Cleanup() error {
	b.flush(false)
	return nil
}

package main

import (
	"fmt"
	"time"

	"heron/internal/extsvc/kafkasim"
)

// The output audit. The reference is the same job run as one plain
// single-threaded loop over the generator's input — replayed from the
// seed and the number of tuples each spout emitted — and timed, which
// makes it the single-thread baseline as well.

// reference is the expected output: final value per key.
type reference struct {
	want    map[string]int64
	tuples  int64
	elapsed time.Duration
}

func (ref *reference) tps() float64 {
	if ref.elapsed <= 0 {
		return 0
	}
	return float64(ref.tuples) / ref.elapsed.Seconds()
}

// foldWords replays each spout's word sequence and counts the words.
func foldWords(dict []string, seed int64, emitted []int64) *reference {
	start := time.Now()
	ref := &reference{want: make(map[string]int64, len(dict))}
	for i, n := range emitted {
		rng := newSplitmix(seed, i)
		for j := int64(0); j < n; j++ {
			ref.want[dict[rng.intn(len(dict))]]++
		}
		ref.tuples += n
	}
	ref.elapsed = time.Since(start)
	return ref
}

// foldEvents replays each spout's consumer and sums the kept amounts.
func foldEvents(broker *kafkasim.Broker, emitted []int64) *reference {
	start := time.Now()
	ref := &reference{want: map[string]int64{}}
	for i, n := range emitted {
		c := newLoopConsumer(broker, i, len(emitted))
		for left := n; left > 0; {
			recs := c.Poll(etlPollBatch)
			if len(recs) == 0 {
				break // empty assignment; the count check below reports it
			}
			if int64(len(recs)) > left {
				recs = recs[:left]
			}
			for _, rec := range recs {
				if user, amount, keep := parseKept(string(rec.Value)); keep {
					ref.want["agg:"+user] += amount
				}
			}
			left -= int64(len(recs))
			ref.tuples += int64(len(recs))
		}
	}
	ref.elapsed = time.Since(start)
	return ref
}

// got is the program's output: for each key, its value on each task that
// holds it (Redis is one shared task).
type got []map[string]int64

// auditRule says how far the output may differ from the reference.
type auditRule struct {
	onePerTask      bool  // every key lives on exactly one task
	atLeast         bool  // acking: a key may exceed the reference, never fall below it
	valuesAreCounts bool  // a key's value counts tuples (WordCount), so shortfalls add up
	undelivered     int64 // tuples still in flight at the drain timeout
	replayed        int64 // tuples re-emitted after a Fail
}

// compare checks the output against the reference. With nothing
// undelivered and no acking the match is exact. Undelivered tuples count
// as failed, not as incorrect output: keys may then fall short, by
// exactly the undelivered count where values count tuples. Under acking
// the surplus may not exceed the replays.
func compare(ref *reference, out got, rule auditRule) error {
	seen := make(map[string]int64, len(ref.want))
	for task, m := range out {
		for k, v := range m {
			if _, dup := seen[k]; dup && rule.onePerTask {
				return fmt.Errorf("key %q is on task %d and on an earlier task", k, task)
			}
			seen[k] += v
		}
	}
	var missing, surplus int64
	for k, want := range ref.want {
		have := seen[k]
		switch {
		case have < want:
			if rule.undelivered == 0 {
				return fmt.Errorf("key %q: have %d, reference %d", k, have, want)
			}
			missing += want - have
		case have > want:
			if !rule.atLeast {
				return fmt.Errorf("key %q: have %d, reference %d", k, have, want)
			}
			surplus += have - want
		}
	}
	for k, have := range seen {
		if _, ok := ref.want[k]; !ok && have != 0 {
			return fmt.Errorf("key %q (value %d) is not in the reference", k, have)
		}
	}
	if rule.valuesAreCounts && !rule.atLeast && missing != rule.undelivered {
		return fmt.Errorf("output is short by %d, but %d tuples were undelivered", missing, rule.undelivered)
	}
	if surplus > rule.replayed {
		return fmt.Errorf("output exceeds the reference by %d, but only %d tuples were replayed", surplus, rule.replayed)
	}
	return nil
}

package heron

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"heron/streamlet"
	"heron/windows"
)

// TestStreamletClickstreamEndToEnd runs the sessionized clickstream
// scenario (examples/clickstream) inside the real engine with exact-count
// audits: a deterministic click stream fans out into (a) per-user session
// activity over tumbling time windows and (b) a skew-tolerant two-phase
// CountByKey of page views. Every click must be counted exactly once on
// both branches.
func TestStreamletClickstreamEndToEnd(t *testing.T) {
	t.Parallel()
	const (
		users         = 8
		clicksPerUser = 250
		total         = users * clicksPerUser
	)
	pages := []string{"/home", "/search", "/item", "/cart"}
	perPage := total / len(pages)

	// Deterministic supplier: user i%users clicks page i%len(pages).
	var next int
	gen := func() (any, bool) {
		if next >= total {
			return nil, false
		}
		i := next
		next++
		return fmt.Sprintf("user-%d %s", i%users, pages[i%len(pages)]), true
	}

	var sessionClicks atomic.Int64 // clicks counted via session windows
	var mu sync.Mutex
	perUser := map[string]int64{}    // user → clicks across all sessions
	pageCounts := map[string]int64{} // page → latest running count

	b := streamlet.NewBuilder("clickstream-" + t.Name())
	clicks := b.Source("clicks", gen)

	// Branch 1: sessionized per-user activity. Tumbling time windows chop
	// each user's stream into sessions; the windowed reduce counts clicks
	// per user per session.
	clicks.
		KeyValueBy(
			func(v any) any { return strings.Fields(v.(string))[0] },
			func(v any) any { return int64(1) },
		).
		ReduceByKeyAndWindow(windows.Tumbling(300*time.Millisecond), func(a, v any) any {
			return a.(int64) + v.(int64)
		}).WithName("sessions").
		Consume(func(kv streamlet.KeyValue) {
			n := kv.Value.(int64)
			sessionClicks.Add(n)
			mu.Lock()
			perUser[kv.Key.(string)] += n
			mu.Unlock()
		})

	// Branch 2: page popularity via the skew-tolerant two-phase count
	// (parallelism 3 forces the partial + merge split).
	clicks.
		KeyValueBy(
			func(v any) any { return strings.Fields(v.(string))[1] },
			nil,
		).
		CountByKey().WithName("pageviews").WithParallelism(3).
		Consume(func(kv streamlet.KeyValue) {
			mu.Lock()
			pageCounts[kv.Key.(string)] = kv.Value.(int64)
			mu.Unlock()
		})

	spec, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	// The planner must have split the parallel count into two phases.
	if spec.Topology.Component("pageviews-partial") == nil {
		t.Fatal("planner did not split pageviews into partial + merge stages")
	}

	h, err := Submit(spec, testConfig(t))
	if err != nil {
		t.Fatal(err)
	}
	defer h.Kill()
	if err := h.WaitRunning(10 * time.Second); err != nil {
		t.Fatal(err)
	}

	// Exact conservation: every click lands in exactly one session window.
	waitFor(t, 120*time.Second, "all clicks sessionized", func() bool {
		return sessionClicks.Load() == total
	})
	// And every click reaches its page's running count.
	waitFor(t, 120*time.Second, "page counts converged", func() bool {
		mu.Lock()
		defer mu.Unlock()
		for _, p := range pages {
			if pageCounts[p] != int64(perPage) {
				return false
			}
		}
		return true
	})

	mu.Lock()
	defer mu.Unlock()
	if len(perUser) != users {
		t.Fatalf("saw %d users, want %d", len(perUser), users)
	}
	for u, n := range perUser {
		if n != clicksPerUser {
			t.Errorf("user %s: %d clicks, want %d", u, n, clicksPerUser)
		}
	}
	if len(pageCounts) != len(pages) {
		t.Errorf("saw %d pages, want %d: %v", len(pageCounts), len(pages), pageCounts)
	}
}

// TestStreamletTopWordsEndToEnd runs the windowed trending-words scenario
// (examples/topwords): sentences with known word frequencies flow through
// a flatmap into per-word counts over tumbling count windows. Window
// sums must conserve the exact word total and rank the known top word
// first.
func TestStreamletTopWordsEndToEnd(t *testing.T) {
	t.Parallel()
	// Each pass over the script contributes 10 words with known
	// frequencies: heron 3, streams 2, tuples 2, scales 1, acks 1, fast 1.
	script := []string{
		"heron streams tuples",
		"heron scales streams",
		"heron acks tuples fast",
	}
	const (
		passes     = 100
		wordsTotal = passes * 10
		windowSize = 100 // divides wordsTotal: every window closes
	)
	wantTotals := map[string]int64{
		"heron": 3 * passes, "streams": 2 * passes, "tuples": 2 * passes,
		"scales": passes, "acks": passes, "fast": passes,
	}

	var next int
	gen := func() (any, bool) {
		if next >= passes*len(script) {
			return nil, false
		}
		s := script[next%len(script)]
		next++
		return s, true
	}

	var counted atomic.Int64
	var mu sync.Mutex
	totals := map[string]int64{}

	b := streamlet.NewBuilder("topwords-" + t.Name())
	b.Source("sentences", gen).
		FlatMap(func(v any) []any {
			var out []any
			for _, w := range strings.Fields(v.(string)) {
				out = append(out, w)
			}
			return out
		}).
		KeyValueBy(
			func(v any) any { return v },
			func(v any) any { return int64(1) },
		).
		ReduceByKeyAndWindow(windows.TumblingCount(windowSize), func(a, v any) any {
			return a.(int64) + v.(int64)
		}).WithName("wordcounts").
		Consume(func(kv streamlet.KeyValue) {
			n := kv.Value.(int64)
			counted.Add(n)
			mu.Lock()
			totals[kv.Key.(string)] += n
			mu.Unlock()
		})

	spec, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	h, err := Submit(spec, testConfig(t))
	if err != nil {
		t.Fatal(err)
	}
	defer h.Kill()
	if err := h.WaitRunning(10 * time.Second); err != nil {
		t.Fatal(err)
	}

	// Exact conservation: wordsTotal is a multiple of the window size, so
	// every word lands in exactly one closed window.
	waitFor(t, 120*time.Second, "all words counted", func() bool {
		return counted.Load() == wordsTotal
	})

	mu.Lock()
	defer mu.Unlock()
	for w, want := range wantTotals {
		if totals[w] != want {
			t.Errorf("word %q: %d, want %d", w, totals[w], want)
		}
	}
	// Top-3 ranking: heron first, then {streams, tuples} in either order.
	type wc struct {
		w string
		n int64
	}
	var ranked []wc
	for w, n := range totals {
		ranked = append(ranked, wc{w, n})
	}
	sort.Slice(ranked, func(i, j int) bool {
		if ranked[i].n != ranked[j].n {
			return ranked[i].n > ranked[j].n
		}
		return ranked[i].w < ranked[j].w
	})
	if ranked[0].w != "heron" {
		t.Errorf("top word = %q, want heron (ranking %v)", ranked[0].w, ranked)
	}
	second := map[string]bool{ranked[1].w: true, ranked[2].w: true}
	if !second["streams"] || !second["tuples"] {
		t.Errorf("top-3 tail = %v, want {streams, tuples}", ranked[1:3])
	}
}

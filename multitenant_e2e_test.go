package heron

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"heron/api"
	"heron/internal/metrics"
	"heron/streamlet"
	"heron/windows"
)

// testCluster starts a cluster of nodes with its observability endpoint
// on a free port. The test fails if closing it reports an error, such as
// a session left open on the cluster's World.
func testCluster(t *testing.T, nodes int) *Cluster {
	t.Helper()
	cl, err := NewCluster(ClusterConfig{Name: "mt", Nodes: nodes, HTTPAddr: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := cl.Close(); err != nil {
			t.Error(err)
		}
	})
	return cl
}

// buildBoundedWordCount assembles a named bounded WordCount: each of the
// spouts emits wordsPerSpout words exactly once, counted into the
// returned table.
func buildBoundedWordCount(t *testing.T, name string, spouts, bolts, wordsPerSpout int) (*api.Spec, *countTable) {
	t.Helper()
	table := newCountTable()
	words := testWords(wordsPerSpout)
	var emitted, acked, failed atomic.Int64
	b := api.NewTopologyBuilder(name)
	b.SetSpout("word", func() api.Spout {
		return &boundedWordSpout{words: words, emitted: &emitted, acked: &acked, failed: &failed}
	}, spouts).OutputFields("word")
	b.SetBolt("count", func() api.Bolt {
		return &countBolt{table: table}
	}, bolts).FieldsGrouping("word", "", "word")
	spec, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return spec, table
}

// TestClusterMultitenantExampleEndToEnd runs the examples/multitenant
// scenario with deterministic sources and exact-count audits: two
// tenants under different quotas share one substrate, a clickstream
// page-view counter next to a windowed word ranker, observed through the
// single shared endpoint.
func TestClusterMultitenantExampleEndToEnd(t *testing.T) {
	t.Parallel()
	cl := testCluster(t, 4)
	if err := cl.AddTenant("analytics", Quota{Resources: Resource{CPU: 24}, MaxContainers: 8}, 1); err != nil {
		t.Fatal(err)
	}
	if err := cl.AddTenant("trends", Quota{Resources: Resource{CPU: 16}, MaxContainers: 6}, 0); err != nil {
		t.Fatal(err)
	}

	// Tenant "analytics": deterministic clickstream, page i%len(pages).
	const clicks = 800
	pages := []string{"/home", "/search", "/item", "/cart"}
	var nextClick int
	var muA sync.Mutex
	pageCounts := map[string]int64{}
	ba := streamlet.NewBuilder("clickstream")
	ba.Source("clicks", func() (any, bool) {
		if nextClick >= clicks {
			return nil, false
		}
		i := nextClick
		nextClick++
		return pages[i%len(pages)], true
	}).
		KeyValueBy(func(v any) any { return v }, nil).
		CountByKey().WithName("pageviews").
		Consume(func(kv streamlet.KeyValue) {
			muA.Lock()
			pageCounts[kv.Key.(string)] = kv.Value.(int64)
			muA.Unlock()
		})
	clickSpec, err := ba.Build()
	if err != nil {
		t.Fatal(err)
	}

	// Tenant "trends": every word lands in exactly one tumbling window.
	const posts = 600
	var nextPost int
	var trendWords atomic.Int64
	bt := streamlet.NewBuilder("topwords")
	bt.Source("posts", func() (any, bool) {
		if nextPost >= posts {
			return nil, false
		}
		i := nextPost
		nextPost++
		return fmt.Sprintf("w%d w%d", i%7, i%13), true
	}).
		FlatMap(func(v any) []any {
			var out []any
			for _, w := range strings.Fields(v.(string)) {
				out = append(out, w)
			}
			return out
		}).WithName("words").
		KeyValueBy(func(v any) any { return v }, func(v any) any { return int64(1) }).
		ReduceByKeyAndWindow(windows.Tumbling(250*time.Millisecond), func(a, v any) any {
			return a.(int64) + v.(int64)
		}).WithName("trending").
		Consume(func(kv streamlet.KeyValue) {
			trendWords.Add(kv.Value.(int64))
		})
	trendSpec, err := bt.Build()
	if err != nil {
		t.Fatal(err)
	}

	ch, err := cl.Submit("analytics", clickSpec, nil)
	if err != nil {
		t.Fatal(err)
	}
	th, err := cl.Submit("trends", trendSpec, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := ch.WaitRunning(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	if err := th.WaitRunning(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	if got := cl.List(); len(got) != 2 || got[0] != "clickstream" || got[1] != "topwords" {
		t.Fatalf("List = %v, want [clickstream topwords]", got)
	}

	// A third submission reusing a running name is rejected at admission,
	// even from the other tenant.
	dupSpec, _ := buildBoundedWordCount(t, "clickstream", 1, 1, 10)
	if _, err := cl.Submit("trends", dupSpec, nil); !errors.Is(err, ErrDuplicateTopology) {
		t.Fatalf("duplicate submit: err = %v, want ErrDuplicateTopology", err)
	}

	// Exact-count audits on both tenants.
	waitFor(t, 60*time.Second, "page views converged", func() bool {
		muA.Lock()
		defer muA.Unlock()
		for _, p := range pages {
			if pageCounts[p] != clicks/int64(len(pages)) {
				return false
			}
		}
		return true
	})
	waitFor(t, 60*time.Second, "trend windows flushed", func() bool {
		return trendWords.Load() == posts*2
	})

	// Quota accounting is visible per tenant and charged correctly.
	for _, ts := range cl.Tenants() {
		if ts.Used.CPU <= 0 || ts.Containers <= 0 {
			t.Fatalf("tenant %s shows no usage: %+v", ts.Name, ts)
		}
		if ts.DominantShare <= 0 || ts.DominantShare > 1 {
			t.Fatalf("tenant %s dominant share %v out of range", ts.Name, ts.DominantShare)
		}
	}

	// The shared endpoint namespaces both tenants' series by topology and
	// rolls the cluster up at /cluster.
	base := "http://" + cl.ObservabilityAddr()
	body := httpGet(t, base+"/metrics")
	for _, want := range []string{`topology="clickstream"`, `topology="topwords"`} {
		if !strings.Contains(body, want) {
			t.Fatalf("/metrics missing %s", want)
		}
	}
	var rollup struct {
		Cluster string         `json:"cluster"`
		Tenants []TenantStatus `json:"tenants"`
		Nodes   []struct {
			Name string `json:"name"`
		} `json:"nodes"`
		Topologies []struct {
			Name   string `json:"name"`
			Tenant string `json:"tenant"`
		} `json:"topologies"`
	}
	if err := json.Unmarshal([]byte(httpGet(t, base+"/cluster")), &rollup); err != nil {
		t.Fatalf("/cluster: %v", err)
	}
	if len(rollup.Tenants) != 2 || len(rollup.Nodes) != 4 || len(rollup.Topologies) != 2 {
		t.Fatalf("/cluster rollup = %+v", rollup)
	}
	if !strings.Contains(httpGet(t, base+"/topology?name=topwords"), `"topology": "topwords"`) {
		t.Fatal("/topology?name=topwords missing topology payload")
	}

	// Kill one tenant's topology: quota releases, the other keeps running,
	// and the name becomes reusable.
	if err := cl.Kill("clickstream"); err != nil {
		t.Fatal(err)
	}
	for _, ts := range cl.Tenants() {
		if ts.Name == "analytics" && (!ts.Used.IsZero() || ts.Containers != 0) {
			t.Fatalf("kill left analytics charged: %+v", ts)
		}
	}
	if got := cl.List(); len(got) != 1 || got[0] != "topwords" {
		t.Fatalf("List after kill = %v", got)
	}
	respec, retable := buildBoundedWordCount(t, "clickstream", 1, 1, 50)
	h2, err := cl.Submit("analytics", respec, nil)
	if err != nil {
		t.Fatalf("resubmit after kill: %v", err)
	}
	if err := h2.WaitRunning(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 30*time.Second, "resubmitted topology counting", func() bool {
		return retable.total.Load() == 50
	})
}

// TestClusterNoisyNeighborIsolation submits an aggressor topology that
// saturates itself into sustained backpressure, then audits a victim
// topology on the same substrate: the victim must count every word
// exactly once and never assert backpressure of its own — aggressor
// pressure stays inside the aggressor's data plane.
func TestClusterNoisyNeighborIsolation(t *testing.T) {
	cl := testCluster(t, 4)
	if err := cl.AddTenant("aggressor", Quota{Resources: Resource{CPU: 24}}, 0); err != nil {
		t.Fatal(err)
	}
	if err := cl.AddTenant("victim", Quota{Resources: Resource{CPU: 24}}, 0); err != nil {
		t.Fatal(err)
	}

	// Aggressor: endless spouts into a bolt that cannot keep up.
	aggTable := newCountTable()
	var aggEmitted, aggAcked, aggFailed atomic.Int64
	words := testWords(1000)
	ba := api.NewTopologyBuilder("aggressor")
	ba.SetSpout("word", func() api.Spout {
		return &boundedWordSpout{words: words, loop: true, emitted: &aggEmitted, acked: &aggAcked, failed: &aggFailed}
	}, 2).OutputFields("word")
	ba.SetBolt("count", func() api.Bolt {
		return &throttledBolt{countBolt: countBolt{table: aggTable}, delay: 500 * time.Microsecond}
	}, 2).FieldsGrouping("word", "", "word")
	aggSpec, err := ba.Build()
	if err != nil {
		t.Fatal(err)
	}
	agg, err := cl.Submit("aggressor", aggSpec, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := agg.WaitRunning(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 60*time.Second, "aggressor in sustained backpressure", func() bool {
		return agg.SumCounter(metrics.MStmgrBPTransitions) > 0 &&
			agg.Metrics().Gauge(metrics.MStmgrBPActive, "") > 0
	})

	// Victim: bounded exact-count run while the aggressor saturates.
	const spouts, perSpout = 2, 500
	vicSpec, vicTable := buildBoundedWordCount(t, "victim", spouts, 2, perSpout)
	vic, err := cl.Submit("victim", vicSpec, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := vic.WaitRunning(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 60*time.Second, "victim exact count", func() bool {
		return vicTable.total.Load() == spouts*perSpout
	})
	if n := vicTable.total.Load(); n != spouts*perSpout {
		t.Fatalf("victim counted %d words, want exactly %d", n, spouts*perSpout)
	}
	if n := vic.SumCounter(metrics.MStmgrBPTransitions); n != 0 {
		t.Fatalf("victim asserted backpressure %d times; aggressor pressure leaked across tenants", n)
	}
	if agg.Metrics().Gauge(metrics.MStmgrBPActive, "") == 0 && agg.SumCounter(metrics.MStmgrBPTransitions) == 0 {
		t.Fatal("aggressor lost its backpressure — the scenario did not exercise isolation")
	}
}

// throttledBolt counts like countBolt but sleeps per tuple, simulating a
// bolt that cannot keep up with its spouts.
type throttledBolt struct {
	countBolt
	delay time.Duration
}

func (b *throttledBolt) Execute(t api.Tuple) error {
	time.Sleep(b.delay)
	return b.countBolt.Execute(t)
}

// TestClusterQuotaEnforcementEndToEnd exercises quota admission on the
// live paths: an exact-fit submission is admitted, growth past the quota
// is rejected at rescale time with the plan unchanged, a second topology
// over the remaining headroom is rejected at submit time, and Kill
// releases the reservation for a successful resubmit.
func TestClusterQuotaEnforcementEndToEnd(t *testing.T) {
	t.Parallel()
	cl := testCluster(t, 4)
	// Exact fit for the plan below: 2 worker containers × (2 instances +
	// 1 overhead) CPU + 1 TMaster = 7 CPU, 3 containers.
	if err := cl.AddTenant("small", Quota{Resources: Resource{CPU: 7}, MaxContainers: 3}, 0); err != nil {
		t.Fatal(err)
	}
	spec, table := buildBoundedWordCount(t, "wc", 2, 2, 300)
	cfg := NewConfig()
	cfg.NumContainers = 2
	h, err := cl.Submit("small", spec, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := h.WaitRunning(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 60*time.Second, "exact count before rescale", func() bool {
		return table.total.Load() == 2*300
	})

	// Rescale over quota: rejected, nothing changes.
	before, err := h.PackingPlan()
	if err != nil {
		t.Fatal(err)
	}
	if err := h.ScaleComponent("count", 4); !errors.Is(err, ErrQuotaExceeded) {
		t.Fatalf("over-quota rescale: err = %v, want ErrQuotaExceeded", err)
	}
	after, err := h.PackingPlan()
	if err != nil {
		t.Fatal(err)
	}
	if got, want := after.ComponentCounts()["count"], before.ComponentCounts()["count"]; got != want {
		t.Fatalf("rejected rescale changed parallelism: %d != %d", got, want)
	}
	used := cl.Tenants()[0].Used
	if used.CPU != 7 {
		t.Fatalf("rejected rescale changed reservation: used %v, want 7 CPU", used)
	}

	// No headroom left: a second topology is rejected at submit time...
	spec2, _ := buildBoundedWordCount(t, "wc2", 1, 1, 10)
	if _, err := cl.Submit("small", spec2, cfg); !errors.Is(err, ErrQuotaExceeded) {
		t.Fatalf("over-quota submit: err = %v, want ErrQuotaExceeded", err)
	}
	// ...and an unknown tenant is rejected outright.
	if _, err := cl.Submit("nobody", spec2, cfg); !errors.Is(err, ErrUnknownTenant) {
		t.Fatalf("unknown tenant: err = %v, want ErrUnknownTenant", err)
	}

	// Kill releases the quota; the rejected topology now fits.
	if err := cl.Kill("wc"); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 10*time.Second, "quota released", func() bool {
		ts := cl.Tenants()[0]
		return ts.Used.IsZero() && ts.Containers == 0
	})
	spec3, table3 := buildBoundedWordCount(t, "wc2", 1, 1, 100)
	h3, err := cl.Submit("small", spec3, cfg)
	if err != nil {
		t.Fatalf("submit after release: %v", err)
	}
	if err := h3.WaitRunning(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 30*time.Second, "post-release topology counting", func() bool {
		return table3.total.Load() == 100
	})
	if err := cl.Kill("nope"); !errors.Is(err, ErrUnknownTopology) {
		t.Fatalf("kill unknown: err = %v, want ErrUnknownTopology", err)
	}
}

func httpGet(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %d: %s", url, resp.StatusCode, body)
	}
	return string(body)
}

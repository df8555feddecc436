package observability

import (
	"encoding/json"
	"io"
	"net"
	"net/http"
	"strings"
	"testing"

	"heron/internal/metrics"
)

// testView is one topology's merged view: a counter, a gauge and a
// histogram, the three series kinds the exposition renders.
func testView(executed int64) *metrics.TopologyView {
	r := metrics.NewRegistry()
	r.Counter(metrics.MExecuteCount, metrics.Tags{Component: "count", Task: 1}).Inc(executed)
	r.Gauge(metrics.MSpoutPending, metrics.Tags{Component: "word", Task: 0}).Set(3)
	r.Histogram(metrics.MExecuteLatency, metrics.Tags{Component: "count", Task: 1}).Observe(100)
	s := r.Snapshot(1)
	return metrics.MergeSnapshots(&s)
}

// healthOf answers /health for the topologies in views.
func healthOf(views map[string]*metrics.TopologyView) func(string) (any, bool) {
	return func(name string) (any, bool) {
		if _, ok := views[name]; !ok {
			return nil, false
		}
		return map[string]any{"topology": name, "enabled": false}, true
	}
}

type route struct {
	path   string
	code   int
	want   []string // substrings of the body
	absent []string // must not appear in the body
}

func TestServerRoutes(t *testing.T) {
	one := map[string]*metrics.TopologyView{"a": testView(7)}
	two := map[string]*metrics.TopologyView{"a": testView(7), "b": testView(9)}
	for _, tc := range []struct {
		name   string
		opts   Options
		views  map[string]*metrics.TopologyView
		routes []route
	}{
		{
			name: "topology", // a Handle's server: a cluster of one
			opts: Options{
				Topology: "a",
				Views:    func() map[string]*metrics.TopologyView { return one },
				Health:   healthOf(one),
				Pprof:    true,
			},
			views: one,
			routes: []route{
				{path: "/metrics", code: 200, want: []string{
					`heron_instance_execute_count{topology="a",component="count",task="1"} 7`,
					`heron_spout_pending{topology="a",component="word",task="0"} 3`,
					`heron_instance_execute_latency{topology="a",component="count",task="1",quantile="0.99"} 100`,
				}},
				{path: "/topology", code: 200, want: []string{`"topology": "a"`, `"value": 7`}, absent: []string{`"cluster"`}},
				{path: "/topology?name=a", code: 200, want: []string{`"topology": "a"`}},
				{path: "/topology?name=nope", code: 404},
				{path: "/health", code: 200, want: []string{`"topology": "a"`, `"enabled": false`}},
				{path: "/health?name=nope", code: 404},
				{path: "/cluster", code: 404},
				{path: "/debug/pprof/cmdline", code: 200},
			},
		},
		{
			name: "cluster",
			opts: Options{
				Cluster: "c",
				Views:   func() map[string]*metrics.TopologyView { return two },
				Health:  healthOf(two),
				Rollup:  func() any { return map[string]any{"cluster": "c", "nodes": 4} },
			},
			views: two,
			routes: []route{
				{path: "/metrics", code: 200, want: []string{
					`heron_instance_execute_count{topology="a",component="count",task="1"} 7`,
					`heron_instance_execute_count{topology="b",component="count",task="1"} 9`,
				}},
				{path: "/topology", code: 200, want: []string{`"cluster": "c"`, `"topologies": [`, `"a"`, `"b"`}},
				{path: "/topology?name=b", code: 200, want: []string{`"cluster": "c"`, `"topology": "b"`, `"value": 9`}},
				{path: "/topology?name=nope", code: 404},
				{path: "/health", code: 400},
				{path: "/health?name=b", code: 200, want: []string{`"topology": "b"`}},
				{path: "/health?name=nope", code: 404},
				{path: "/cluster", code: 200, want: []string{`"nodes": 4`}},
				{path: "/debug/pprof/cmdline", code: 404},
			},
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tc.opts.Addr = "127.0.0.1:0"
			s, err := Start(tc.opts)
			if err != nil {
				t.Fatal(err)
			}
			addr := s.Addr()
			for _, r := range tc.routes {
				code, body := get(t, "http://"+addr+r.path)
				if code != r.code {
					t.Errorf("GET %s = %d, want %d (%s)", r.path, code, r.code, body)
					continue
				}
				for _, w := range r.want {
					if !strings.Contains(body, w) {
						t.Errorf("GET %s missing %q:\n%s", r.path, w, body)
					}
				}
				for _, a := range r.absent {
					if strings.Contains(body, a) {
						t.Errorf("GET %s has %q:\n%s", r.path, a, body)
					}
				}
				if code == 200 && r.path != "/metrics" && !strings.HasPrefix(r.path, "/debug/") && !json.Valid([]byte(body)) {
					t.Errorf("GET %s is not JSON:\n%s", r.path, body)
				}
			}
			_, exposition := get(t, "http://"+addr+"/metrics")
			checkExposition(t, exposition, tc.views)

			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
			l, err := net.Listen("tcp", addr)
			if err != nil {
				t.Fatalf("port still held after Close: %v", err)
			}
			l.Close()
		})
	}
}

// checkExposition asserts one # TYPE line per family, every series under
// a typed family and labelled with one of views' topologies, and every
// topology present.
func checkExposition(t *testing.T, body string, views map[string]*metrics.TopologyView) {
	t.Helper()
	typed := map[string]int{}
	seen := map[string]bool{}
	for _, line := range strings.Split(strings.TrimSpace(body), "\n") {
		if f, ok := strings.CutPrefix(line, "# TYPE "); ok {
			typed[strings.Fields(f)[0]]++
			continue
		}
		family, labels, ok := strings.Cut(line, "{")
		if !ok {
			t.Errorf("series without labels: %q", line)
			continue
		}
		if typed[family] == 0 { // a summary's _sum or _count series
			family = strings.TrimSuffix(strings.TrimSuffix(family, "_sum"), "_count")
		}
		if typed[family] != 1 {
			t.Errorf("series %q not under exactly one # TYPE %s", line, family)
		}
		topo, _, _ := strings.Cut(strings.TrimPrefix(labels, `topology="`), `"`)
		if !strings.HasPrefix(labels, `topology="`) || views[topo] == nil {
			t.Errorf("series %q lacks a known topology label", line)
		}
		seen[topo] = true
	}
	for family, n := range typed {
		if n != 1 {
			t.Errorf("family %s has %d # TYPE lines", family, n)
		}
	}
	for name := range views {
		if !seen[name] {
			t.Errorf("no series for topology %q", name)
		}
	}
}

func get(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, string(body)
}

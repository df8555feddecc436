package metrics

import (
	"fmt"
	"io"
	"sort"
	"strings"
)

// WritePrometheus renders topologies' views, keyed by topology name, on
// one page in the Prometheus text exposition format (version 0.0.4).
// Metric names are sanitized into the Prometheus alphabet and prefixed
// with namespace (e.g. "heron"); every series carries a topology label
// plus its component/task/stream tags. Series of one family are grouped
// across topologies under a single # TYPE line, sorted by family, then
// topology, then tags. Counters and gauges map directly; histograms are
// rendered as summaries with 0.5/0.9/0.99/1.0 quantiles plus _sum and
// _count series.
func WritePrometheus(w io.Writer, namespace string, views map[string]*TopologyView) {
	type series struct {
		family string
		topo   string
		kind   string // "counter" | "gauge" | "summary"
		id     ID
	}
	var all []series
	for topo, v := range views {
		if v == nil {
			continue
		}
		for id := range v.Counters {
			all = append(all, series{promName(namespace, id.Name), topo, "counter", id})
		}
		for id := range v.Gauges {
			all = append(all, series{promName(namespace, id.Name), topo, "gauge", id})
		}
		for id := range v.Histograms {
			all = append(all, series{promName(namespace, id.Name), topo, "summary", id})
		}
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].family != all[j].family {
			return all[i].family < all[j].family
		}
		if all[i].topo != all[j].topo {
			return all[i].topo < all[j].topo
		}
		return all[i].id.less(all[j].id)
	})

	lastTyped := ""
	for _, s := range all {
		if s.family != lastTyped {
			fmt.Fprintf(w, "# TYPE %s %s\n", s.family, s.kind)
			lastTyped = s.family
		}
		v, labels := views[s.topo], promLabels(s.topo, s.id.Tags, "", 0)
		switch s.kind {
		case "counter":
			fmt.Fprintf(w, "%s%s %d\n", s.family, labels, v.Counters[s.id])
		case "gauge":
			fmt.Fprintf(w, "%s%s %d\n", s.family, labels, v.Gauges[s.id])
		case "summary":
			hs := v.Histograms[s.id]
			for _, q := range []float64{0.5, 0.9, 0.99, 1} {
				fmt.Fprintf(w, "%s%s %d\n", s.family, promLabels(s.topo, s.id.Tags, "quantile", q), hs.Quantile(q))
			}
			fmt.Fprintf(w, "%s_sum%s %d\n", s.family, labels, hs.Sum)
			fmt.Fprintf(w, "%s_count%s %d\n", s.family, labels, hs.Count)
		}
	}
}

// promName sanitizes a taxonomy name into the Prometheus metric-name
// alphabet: "instance.execute-count" → "<ns>_instance_execute_count".
func promName(namespace, name string) string {
	var b strings.Builder
	if namespace != "" {
		b.WriteString(namespace)
		b.WriteByte('_')
	}
	for i := 0; i < len(name); i++ {
		c := name[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_', c == ':':
			b.WriteByte(c)
		case c >= '0' && c <= '9':
			if b.Len() == 0 {
				b.WriteByte('_')
			}
			b.WriteByte(c)
		default:
			b.WriteByte('_')
		}
	}
	return b.String()
}

// promLabels renders the label set for one series: the topology, then
// the tags; extraKey (when non-empty) appends a float label such as
// quantile="0.99".
func promLabels(topology string, t Tags, extraKey string, extraVal float64) string {
	parts := []string{fmt.Sprintf("topology=%q", topology)}
	// Task 0 is a valid task id; emit the label whenever the metric is
	// component-scoped so per-task series stay distinguishable.
	if t.Component != "" {
		parts = append(parts, fmt.Sprintf("component=%q", t.Component), fmt.Sprintf("task=\"%d\"", t.Task))
	}
	if t.Stream != "" {
		parts = append(parts, fmt.Sprintf("stream=%q", t.Stream))
	}
	if extraKey != "" {
		parts = append(parts, fmt.Sprintf("%s=\"%g\"", extraKey, extraVal))
	}
	return "{" + strings.Join(parts, ",") + "}"
}

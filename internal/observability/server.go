// Package observability serves merged metrics views over plain net/http:
// /metrics in Prometheus text exposition format for scrapers, /topology
// as structured JSON for dashboards and debugging, /health with each
// topology's health-manager and control-plane status, and optionally a
// cluster rollup at /cluster and the net/http/pprof profiling handlers.
// One server shape serves both a multi-tenant cluster and a single
// topology, which is a cluster of one. The server reads through its
// sources on every request, so each response sees the Topology Masters'
// latest aggregation.
package observability

import (
	"encoding/json"
	"net"
	"net/http"
	"net/http/pprof"
	"sort"
	"sync"

	"heron/internal/metrics"
)

// Namespace prefixes every Prometheus series the server emits.
const Namespace = "heron"

// Options configure one observability server.
type Options struct {
	// Addr is the listen address ("127.0.0.1:0" picks a free port).
	Addr string
	// Cluster is the cluster name echoed in /topology payloads; a single
	// topology's server leaves it empty and the payloads omit it.
	Cluster string
	// Topology is the topology a request without ?name= answers for — a
	// single topology's own name. A cluster's server leaves it empty:
	// /topology then lists every topology and /health requires a name.
	Topology string
	// Views returns the current merged metrics view of every topology,
	// keyed by name. It must never return nil and must be safe for
	// concurrent use.
	Views func() map[string]*metrics.TopologyView
	// Health returns one topology's /health payload, or false when no
	// such topology runs.
	Health func(topology string) (any, bool)
	// Rollup, when non-nil, is served as JSON at /cluster.
	Rollup func() any
	// Pprof mounts net/http/pprof under /debug/pprof/ when true.
	Pprof bool
}

// Server is a running observability endpoint.
type Server struct {
	listener net.Listener
	srv      *http.Server
	closed   sync.Once
	done     chan struct{}
}

// Start binds the listener and begins serving:
//
//	/metrics            every topology's series, topology-labelled
//	/topology?name=X    one topology's metrics dump
//	/health?name=X      one topology's health and control-plane status
//	/cluster            the rollup, when Options.Rollup is set
//
// An unknown name is a 404 on both /topology and /health. It returns
// once the listener is bound, so Addr() is immediately valid.
func Start(opts Options) (*Server, error) {
	l, err := net.Listen("tcp", opts.Addr)
	if err != nil {
		return nil, err
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		metrics.WritePrometheus(w, Namespace, opts.Views())
	})
	mux.HandleFunc("/topology", func(w http.ResponseWriter, r *http.Request) {
		views := opts.Views()
		name := queryName(r, opts.Topology)
		if name == "" {
			names := make([]string, 0, len(views))
			dumps := make(map[string]metrics.ViewDump, len(views))
			for n, v := range views {
				names = append(names, n)
				dumps[n] = v.Dump()
			}
			sort.Strings(names)
			writeJSON(w, struct {
				Cluster    string                      `json:"cluster"`
				Topologies []string                    `json:"topologies"`
				Metrics    map[string]metrics.ViewDump `json:"metrics"`
			}{opts.Cluster, names, dumps})
			return
		}
		v, ok := views[name]
		if !ok {
			http.Error(w, "unknown topology "+name, http.StatusNotFound)
			return
		}
		writeJSON(w, struct {
			Cluster  string           `json:"cluster,omitempty"`
			Topology string           `json:"topology"`
			Metrics  metrics.ViewDump `json:"metrics"`
		}{opts.Cluster, name, v.Dump()})
	})
	mux.HandleFunc("/health", func(w http.ResponseWriter, r *http.Request) {
		name := queryName(r, opts.Topology)
		if name == "" {
			http.Error(w, "usage: /health?name=<topology>", http.StatusBadRequest)
			return
		}
		payload, ok := opts.Health(name)
		if !ok {
			http.Error(w, "unknown topology "+name, http.StatusNotFound)
			return
		}
		writeJSON(w, payload)
	})
	if opts.Rollup != nil {
		mux.HandleFunc("/cluster", func(w http.ResponseWriter, r *http.Request) {
			writeJSON(w, opts.Rollup())
		})
	}
	if opts.Pprof {
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	s := &Server{
		listener: l,
		srv:      &http.Server{Handler: mux},
		done:     make(chan struct{}),
	}
	go func() {
		defer close(s.done)
		_ = s.srv.Serve(l)
	}()
	return s, nil
}

// queryName is the request's ?name=, or def when it names none.
func queryName(r *http.Request, def string) string {
	if name := r.URL.Query().Get("name"); name != "" {
		return name
	}
	return def
}

// writeJSON serves v as indented JSON.
func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

// Addr returns the bound listen address (host:port).
func (s *Server) Addr() string { return s.listener.Addr().String() }

// Close stops the server and waits for the serve loop to exit.
func (s *Server) Close() error {
	var err error
	s.closed.Do(func() {
		err = s.srv.Close()
		<-s.done
	})
	return err
}

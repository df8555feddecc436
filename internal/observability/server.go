// Package observability serves the topology's merged metrics view over
// plain net/http: /metrics in Prometheus text exposition format for
// scrapers, /topology as structured JSON for dashboards and debugging,
// and optionally the net/http/pprof profiling handlers. The server reads
// through a view function so every request sees the Topology Master's
// latest aggregation.
package observability

import (
	"encoding/json"
	"net"
	"net/http"
	"net/http/pprof"
	"sync"

	"heron/internal/metrics"
)

// Namespace prefixes every Prometheus series the server emits.
const Namespace = "heron"

// Options configure one observability server.
type Options struct {
	// Addr is the listen address ("127.0.0.1:0" picks a free port).
	Addr string
	// Topology is the topology name, echoed in the /topology payload.
	Topology string
	// View returns the current merged metrics view; it must never return
	// nil and must be safe for concurrent use.
	View func() *metrics.TopologyView
	// Pprof mounts net/http/pprof under /debug/pprof/ when true.
	Pprof bool
	// Health, when non-nil, is served as JSON at /health — the health
	// manager's current diagnosis and action log. When nil, /health
	// reports {"enabled": false}.
	Health func() any
	// Control, when non-nil, adds the control-plane replica status
	// (leader, terms, failover counts) to the /health payload.
	Control func() any
}

// Server is a running observability endpoint.
type Server struct {
	listener net.Listener
	srv      *http.Server
	closed   sync.Once
	done     chan struct{}
}

// Start binds the listener and begins serving. It returns once the
// listener is bound, so Addr() is immediately valid.
func Start(opts Options) (*Server, error) {
	l, err := net.Listen("tcp", opts.Addr)
	if err != nil {
		return nil, err
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		opts.View().WritePrometheus(w, Namespace)
	})
	mux.HandleFunc("/topology", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(struct {
			Topology string           `json:"topology"`
			Metrics  metrics.ViewDump `json:"metrics"`
		}{opts.Topology, opts.View().Dump()})
	})
	mux.HandleFunc("/health", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		var control any
		if opts.Control != nil {
			control = opts.Control()
		}
		if opts.Health == nil {
			_ = enc.Encode(struct {
				Enabled bool `json:"enabled"`
				Control any  `json:"control,omitempty"`
			}{false, control})
			return
		}
		_ = enc.Encode(struct {
			Enabled bool `json:"enabled"`
			Status  any  `json:"status"`
			Control any  `json:"control,omitempty"`
		}{true, opts.Health(), control})
	})
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

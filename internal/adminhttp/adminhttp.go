// Package adminhttp serves the shared observability endpoints behind the
// bwmonitord -admin and bwrun/bwinject -metrics-addr flags:
//
//	/metrics      the attached registry in Prometheus text exposition
//	/healthz      a liveness probe ("ok\n", 200)
//	/debug/pprof  the standard net/http/pprof profiling handlers
//
// The listener is deliberately separate from the monitoring wire protocol
// listener: scraping and profiling must never contend with (or be able to
// corrupt) the event stream. Handlers only read — the registry's snapshot
// semantics make a scrape safe while senders are running.
package adminhttp

import (
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"time"

	"blockwatch/internal/metrics"
)

// Handler returns the admin mux for a registry. A nil registry is served
// as an empty exposition, so a caller may enable the listener without
// wiring metrics.
func Handler(reg *metrics.Registry) http.Handler {
	return HandlerWithHealth(reg, nil)
}

// HandlerWithHealth is Handler with a pluggable /healthz state. A nil
// health func (or one returning "") keeps the plain "ok" liveness probe;
// a non-empty string is served with 503 so load balancers stop routing
// new sessions to a daemon that is, e.g., draining.
func HandlerWithHealth(reg *metrics.Registry, health func() string) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		if reg != nil {
			reg.WritePrometheus(w)
		}
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		if health != nil {
			if state := health(); state != "" {
				w.WriteHeader(http.StatusServiceUnavailable)
				fmt.Fprintln(w, state)
				return
			}
		}
		fmt.Fprintln(w, "ok")
	})
	// Register the pprof handlers explicitly rather than importing the
	// package for its side effect: the side-effect registration targets
	// http.DefaultServeMux, which this listener must not expose.
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// Server is a running admin listener.
type Server struct {
	ln  net.Listener
	srv *http.Server
	err chan error
}

// Start listens on a TCP addr (e.g. "127.0.0.1:0") and serves the admin
// endpoints in a background goroutine until Close.
func Start(addr string, reg *metrics.Registry) (*Server, error) {
	return StartWithHealth(addr, reg, nil)
}

// StartWithHealth is Start with a pluggable /healthz state (see
// HandlerWithHealth).
func StartWithHealth(addr string, reg *metrics.Registry, health func() string) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("admin listener: %w", err)
	}
	s := &Server{
		ln: ln,
		srv: &http.Server{
			Handler:           HandlerWithHealth(reg, health),
			ReadHeaderTimeout: 5 * time.Second,
		},
		err: make(chan error, 1),
	}
	go func() { s.err <- s.srv.Serve(ln) }()
	return s, nil
}

// Addr returns the bound address (useful with ":0").
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Close stops the listener. In-flight scrapes are abandoned — the admin
// plane never delays process shutdown.
func (s *Server) Close() error {
	err := s.srv.Close()
	<-s.err // always http.ErrServerClosed after Close
	return err
}

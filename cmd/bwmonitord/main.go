// Command bwmonitord is the out-of-process BLOCKWATCH monitoring daemon:
// it accepts wire-protocol connections from monitored programs (bwrun
// -remote, or any remote.Client), checks each session's frames on the
// goroutine that reads them, and returns each session's verdict in the
// result frame. Many programs
// can stream concurrently; a session that misbehaves only loses its own
// coverage.
//
// Usage:
//
//	bwmonitord serve [flags]
//
// Flags:
//
//	-addr A       listen address: host:port for TCP, unix:/path or any
//	              path containing "/" for a unix socket (default 127.0.0.1:4777)
//	-queuecap N   events a session buffers for one thread gated at a
//	              barrier; past N the generation is force-closed
//	              (0 = default 16384)
//	-watchdog D   per-session stall-watchdog deadline, checked as each
//	              frame arrives (0 = disabled)
//	-maxthreads N largest thread count a session may claim (default 1024)
//	-maxconns N   reject new sessions beyond N live ones with a polite
//	              wire-level reject frame (0 = unlimited)
//	-readtimeout D   per-frame read deadline on session connections; a
//	              peer silent longer than D is disconnected (0 = none)
//	-writetimeout D  write deadline on result/reject frames (0 = default 10s)
//	-drain D      on SIGINT/SIGTERM stop accepting, report "draining" on
//	              /healthz, and give live sessions up to D to finish
//	              before closing (0 = close immediately)
//	-quiet        log only errors, not per-session lines
//	-admin A      also serve an HTTP observability listener at A with
//	              /metrics (Prometheus text), /healthz, and /debug/pprof;
//	              one registry aggregates every session's checker metrics
//	-version      print the build version and exit
//
// The daemon runs until interrupted (SIGINT/SIGTERM), then drains (or
// closes) live sessions and exits. A stale unix socket left by a crashed
// daemon is removed on startup if nothing is listening on it.
package main

import (
	"fmt"
	"io"
	"os"
	"os/signal"
	"syscall"

	"blockwatch/cmd/internal/cliref"
	"blockwatch/internal/adminhttp"
	"blockwatch/internal/buildinfo"
	"blockwatch/internal/metrics"
	"blockwatch/internal/remote"
)

func main() {
	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	if err := run(os.Args[1:], os.Stdout, os.Stderr, stop); err != nil {
		fmt.Fprintln(os.Stderr, "bwmonitord:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout, stderr io.Writer, stop <-chan os.Signal) error {
	if buildinfo.HandleVersion(args, stdout, "bwmonitord") {
		return nil
	}
	if len(args) < 1 || args[0] != "serve" {
		return fmt.Errorf("usage: bwmonitord serve [flags]")
	}
	args = args[1:]
	fs, opt := cliref.ServeFlags(stderr)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 0 {
		return fmt.Errorf("unexpected argument %q", fs.Arg(0))
	}

	cfg := remote.ServerConfig{
		QueueCap:      opt.QueueCap,
		StallDeadline: opt.Watchdog,
		MaxThreads:    opt.MaxThreads,
		MaxConns:      opt.MaxConns,
		IdleTimeout:   opt.ReadTimeout,
		WriteTimeout:  opt.WriteTimeout,
	}
	if !opt.Quiet {
		cfg.Logf = func(format string, a ...any) {
			fmt.Fprintf(stderr, "bwmonitord: "+format+"\n", a...)
		}
	}
	if opt.Admin != "" {
		cfg.Metrics = metrics.NewRegistry()
	}
	srv := remote.NewServer(cfg)
	ln, err := remote.Listen(opt.Addr)
	if err != nil {
		return err
	}
	if opt.Admin != "" {
		adm, err := adminhttp.StartWithHealth(opt.Admin, cfg.Metrics, func() string {
			if srv.Draining() {
				return "draining"
			}
			return ""
		})
		if err != nil {
			ln.Close()
			return err
		}
		defer adm.Close()
		fmt.Fprintf(stdout, "bwmonitord: admin endpoints on http://%s (/metrics /healthz /debug/pprof)\n", adm.Addr())
	}
	fmt.Fprintf(stdout, "bwmonitord: serving on %s\n", ln.Addr())

	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()
	select {
	case err := <-errc:
		return err
	case sig := <-stop:
		if opt.Drain > 0 {
			fmt.Fprintf(stdout, "bwmonitord: %v, draining (up to %v for live sessions)\n", sig, opt.Drain)
			srv.Drain(opt.Drain)
		}
		fmt.Fprintf(stdout, "bwmonitord: %v, shutting down (%d sessions served)\n", sig, srv.Sessions())
		srv.Close()
		<-errc
		return nil
	}
}

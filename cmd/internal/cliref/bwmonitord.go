package cliref

import (
	"flag"
	"io"
	"time"
)

// ServeOpts carries bwmonitord serve's parsed flags.
type ServeOpts struct {
	Addr         string
	QueueCap     int
	Watchdog     time.Duration
	MaxThreads   int
	MaxConns     int
	ReadTimeout  time.Duration
	WriteTimeout time.Duration
	Drain        time.Duration
	Quiet        bool
	Admin        string
}

// ServeFlags builds the serve subcommand's flag set.
func ServeFlags(stderr io.Writer) (*flag.FlagSet, *ServeOpts) {
	fs := newFlagSet("bwmonitord serve", stderr)
	o := &ServeOpts{}
	fs.StringVar(&o.Addr, "addr", "127.0.0.1:4777", "listen address (host:port, unix:/path, or a socket path)")
	fs.IntVar(&o.QueueCap, "queuecap", 0, "events a session buffers for one thread gated at a barrier; past it the generation is force-closed (0 = default 16384)")
	fs.DurationVar(&o.Watchdog, "watchdog", 0, "per-session stall-watchdog deadline, checked as each frame arrives (0 = disabled)")
	fs.IntVar(&o.MaxThreads, "maxthreads", 0, "largest thread count a session may claim (0 = default 1024)")
	fs.IntVar(&o.MaxConns, "maxconns", 0, "reject new sessions beyond N live ones (0 = unlimited)")
	fs.DurationVar(&o.ReadTimeout, "readtimeout", 0, "per-frame read deadline on session connections (0 = none)")
	fs.DurationVar(&o.WriteTimeout, "writetimeout", 0, "write deadline on result/reject frames (0 = default)")
	fs.DurationVar(&o.Drain, "drain", 0, "graceful-drain window for live sessions on shutdown (0 = close immediately)")
	fs.BoolVar(&o.Quiet, "quiet", false, "log only errors, not per-session lines")
	fs.StringVar(&o.Admin, "admin", "", "HTTP observability listener address (/metrics, /healthz, /debug/pprof); empty = off")
	return fs, o
}

func monitordCommand() Command {
	return Command{
		Name:    "bwmonitord",
		Summary: "out-of-process monitoring daemon: one checker per wire session",
		Description: "bwmonitord accepts wire-protocol connections from monitored programs (bwrun " +
			"-remote, or any remote.Client), checks each session's frames on the goroutine " +
			"that reads them, and returns each session's verdict in the result frame. Many programs can stream " +
			"concurrently; a session that misbehaves only loses its own coverage. The daemon " +
			"runs until interrupted (SIGINT/SIGTERM), then drains (or closes) live sessions " +
			"and exits. A stale unix socket left by a crashed daemon is removed on startup " +
			"if nothing is listening on it.",
		Sections: []Section{{
			Name:    "serve",
			Summary: "listen for monitoring sessions until interrupted",
			Usage:   "bwmonitord serve [flags]",
			Flags:   func(stderr io.Writer) *flag.FlagSet { fs, _ := ServeFlags(stderr); return fs },
		}},
	}
}

package remote

import (
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"blockwatch/internal/metrics"
	"blockwatch/internal/monitor"
	"blockwatch/internal/wire"
)

// DefaultMaxThreads bounds the thread count a hello frame may claim; a
// corrupt or hostile header cannot make the server allocate queues for
// millions of threads.
const DefaultMaxThreads = 1 << 10

// DefaultServerWriteTimeout bounds the server's writes (result and
// reject frames) so a dead client cannot wedge a session goroutine.
const DefaultServerWriteTimeout = 10 * time.Second

// ServerConfig configures a monitoring daemon.
type ServerConfig struct {
	// QueueCap bounds the events a session buffers for one thread that
	// has flushed past a barrier the others have not reached
	// (0 = monitor.DefaultQueueCap). A thread about to pass it
	// force-closes the generation, degrading the session's health.
	QueueCap int
	// StallDeadline arms each session checker's stall watchdog
	// (0 = disabled). It is evaluated as each frame arrives and before
	// the final check.
	StallDeadline time.Duration
	// MaxThreads bounds the hello frame's thread count
	// (0 = DefaultMaxThreads).
	MaxThreads int
	// MaxConns bounds concurrent sessions (0 = unlimited). A connection
	// accepted past the limit gets a polite reject frame with a reason,
	// then is closed; the client treats it as a retryable transport
	// fault.
	MaxConns int
	// IdleTimeout is the per-frame read deadline on a session connection
	// (0 = none: monitored programs may legitimately compute for a long
	// time between events). When set, a connection silent past it ends
	// its session, checking what was received.
	IdleTimeout time.Duration
	// WriteTimeout bounds the server's result/reject frame writes
	// (0 = DefaultServerWriteTimeout, negative = none).
	WriteTimeout time.Duration
	// Logf, when non-nil, receives one line per session event (accept,
	// result, error). The daemon points it at its log; tests capture it.
	Logf func(format string, args ...any)
	// Metrics, when non-nil, receives the daemon's session and wire
	// metrics (bw_server_*, bw_wire_rx_*) and is threaded into every
	// session checker (bw_monitor_*), so one registry aggregates the
	// whole daemon — what the -admin /metrics endpoint scrapes.
	Metrics *metrics.Registry
}

// serverMetrics is the server's handle set (zero value = detached).
type serverMetrics struct {
	sessions   *metrics.Counter // bw_server_sessions_total
	active     *metrics.Gauge   // bw_server_sessions_active
	clean      *metrics.Counter // bw_server_sessions_clean_total
	events     *metrics.Counter // bw_server_session_events_total
	violations *metrics.Counter // bw_server_violations_total
	rejected   *metrics.Counter // bw_server_rejected_total
	draining   *metrics.Gauge   // bw_server_draining
}

func newServerMetrics(r *metrics.Registry) serverMetrics {
	if r == nil {
		return serverMetrics{}
	}
	return serverMetrics{
		sessions: r.Counter("bw_server_sessions_total",
			"monitoring sessions handled (including rejected and unclean)"),
		active: r.Gauge("bw_server_sessions_active",
			"monitoring sessions currently streaming"),
		clean: r.Counter("bw_server_sessions_clean_total",
			"sessions that completed the finish/result exchange"),
		events: r.Counter("bw_server_session_events_total",
			"branch events checked across finished sessions"),
		violations: r.Counter("bw_server_violations_total",
			"violations detected across finished sessions"),
		rejected: r.Counter("bw_server_rejected_total",
			"connections refused at the -maxconns session limit"),
		draining: r.Gauge("bw_server_draining",
			"1 while the server is draining (stopped accepting, finishing live sessions)"),
	}
}

// SessionInfo summarizes one finished monitoring session.
type SessionInfo struct {
	Program    string
	Threads    int
	Violations int
	Health     monitor.HealthState
	Stats      monitor.Stats
	// Clean reports whether the session ended with the finish/result
	// exchange (false: the connection dropped mid-stream).
	Clean bool
}

// Server accepts monitoring connections and checks each one with a
// monitor.Checker on the connection's own goroutine, fed frame by frame
// from the decoded event stream. Sessions are independent: many programs
// stream concurrently.
type Server struct {
	cfg ServerConfig
	met serverMetrics

	mu       sync.Mutex
	ln       net.Listener
	conns    map[net.Conn]struct{}
	closed   bool
	draining bool
	wg       sync.WaitGroup
	sessions atomic.Uint64
	rejected atomic.Uint64
}

// NewServer builds a server.
func NewServer(cfg ServerConfig) *Server {
	if cfg.MaxThreads <= 0 {
		cfg.MaxThreads = DefaultMaxThreads
	}
	return &Server{cfg: cfg, met: newServerMetrics(cfg.Metrics), conns: make(map[net.Conn]struct{})}
}

// ErrServerClosed is returned by Serve after Close.
var ErrServerClosed = errors.New("remote: server closed")

// Listen resolves addr with the same syntax as Dial (SplitAddr) and
// returns a listener for Serve. A stale unix socket file — left behind
// by a killed daemon — is detected (nothing answers a dial) and
// unlinked, so a restart never fails on a leftover; a socket with a
// live daemon behind it is a real address conflict and errors.
func Listen(addr string) (net.Listener, error) {
	network, address := SplitAddr(addr)
	if network == "unix" {
		if err := cleanStaleSocket(address); err != nil {
			return nil, err
		}
	}
	return net.Listen(network, address)
}

// cleanStaleSocket unlinks address if it is a unix socket file no
// daemon is listening on. (Go's net package removes the file on a clean
// listener Close; this handles the unclean-death case.)
func cleanStaleSocket(address string) error {
	fi, err := os.Stat(address)
	if err != nil {
		return nil // absent (or unstatable): let net.Listen report it
	}
	if fi.Mode()&os.ModeSocket == 0 {
		return fmt.Errorf("remote: %s exists and is not a socket", address)
	}
	conn, err := net.DialTimeout("unix", address, 250*time.Millisecond)
	if err == nil {
		conn.Close()
		return fmt.Errorf("remote: %s is in use by a running daemon", address)
	}
	if err := os.Remove(address); err != nil && !os.IsNotExist(err) {
		return fmt.Errorf("remote: removing stale socket %s: %w", address, err)
	}
	return nil
}

// Serve accepts connections on ln until Close, handling each session in
// its own goroutine. It returns ErrServerClosed after Close, or the
// accept error that stopped it.
func (s *Server) Serve(ln net.Listener) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		ln.Close()
		return ErrServerClosed
	}
	s.ln = ln
	s.mu.Unlock()
	for {
		conn, err := ln.Accept()
		if err != nil {
			s.mu.Lock()
			closed := s.closed || s.draining
			s.mu.Unlock()
			if closed {
				return ErrServerClosed
			}
			return err
		}
		s.mu.Lock()
		if s.closed || s.draining {
			// A connection accepted as Drain closed the listener: Drain
			// may already be waiting on wg, so it must not be added.
			s.mu.Unlock()
			conn.Close()
			return ErrServerClosed
		}
		if s.cfg.MaxConns > 0 && len(s.conns) >= s.cfg.MaxConns {
			live := len(s.conns)
			s.mu.Unlock()
			s.rejected.Add(1)
			s.met.rejected.Inc()
			// Refuse politely off the accept loop; the write is
			// deadline-bounded so a dead client cannot stall it anyway.
			go s.reject(conn, live)
			continue
		}
		s.conns[conn] = struct{}{}
		s.wg.Add(1)
		s.mu.Unlock()
		go func() {
			defer s.wg.Done()
			defer func() {
				s.mu.Lock()
				delete(s.conns, conn)
				s.mu.Unlock()
				conn.Close()
			}()
			s.handle(conn)
		}()
	}
}

// Close stops accepting, closes every live session connection, and waits
// for the session goroutines (and their monitors) to wind down.
func (s *Server) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		s.wg.Wait()
		return
	}
	s.closed = true
	ln := s.ln
	for conn := range s.conns {
		conn.Close()
	}
	s.mu.Unlock()
	if ln != nil {
		ln.Close()
	}
	s.wg.Wait()
}

// Drain gracefully shuts the server down: stop accepting, let live
// sessions finish within the timeout, then force-close whatever
// remains. Draining() (and an adminhttp health hook pointed at it)
// reports the intermediate state. Drain blocks until shutdown is
// complete; calling it on a closed or already-draining server just
// waits.
func (s *Server) Drain(timeout time.Duration) {
	s.mu.Lock()
	if s.closed || s.draining {
		s.mu.Unlock()
		s.wg.Wait()
		return
	}
	s.draining = true
	ln := s.ln
	s.mu.Unlock()
	s.met.draining.Set(1)
	if ln != nil {
		ln.Close() // Serve returns ErrServerClosed; no new sessions
	}
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(timeout):
	}
	s.Close()
	s.met.draining.Set(0)
}

// Draining reports whether the server is between Drain and full
// shutdown: not accepting, finishing live sessions.
func (s *Server) Draining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining && !s.closed
}

// reject writes the polite at-capacity refusal and closes the
// connection.
func (s *Server) reject(conn net.Conn, live int) {
	defer conn.Close()
	s.refuse(conn, fmt.Sprintf("daemon at capacity (%d sessions, -maxconns %d)", live, s.cfg.MaxConns))
}

// refuse writes a reject frame carrying reason, bounded by the write
// timeout; the caller closes the connection.
func (s *Server) refuse(conn net.Conn, reason string) {
	if wt := s.writeTimeout(); wt > 0 {
		_ = conn.SetWriteDeadline(time.Now().Add(wt))
	}
	wr := wire.NewWriter(conn)
	if err := wr.WriteReject(reason); err == nil {
		err = wr.Sync()
		if err != nil {
			s.logf("rejecting session: %v", err)
		}
	}
	s.logf("session refused: %s", reason)
}

func (s *Server) writeTimeout() time.Duration {
	if s.cfg.WriteTimeout == 0 {
		return DefaultServerWriteTimeout
	}
	if s.cfg.WriteTimeout < 0 {
		return 0
	}
	return s.cfg.WriteTimeout
}

// Sessions returns the number of sessions handled so far (including
// unclean ones).
func (s *Server) Sessions() uint64 { return s.sessions.Load() }

// Rejected returns the number of connections refused at the MaxConns
// limit.
func (s *Server) Rejected() uint64 { return s.rejected.Load() }

func (s *Server) logf(format string, args ...any) {
	if s.cfg.Logf != nil {
		s.cfg.Logf(format, args...)
	}
}

// sessionScratch is the per-session state a busy daemon churns through:
// the wire reader (with its retained payload scratch), the decoded frame
// (with its event scratch) and the session's checker (with its per-thread
// buffers for gated threads). Pooled across sessions so steady-state
// session turnover reuses warmed buffers and the per-frame ingest path —
// decode into the frame scratch, check in place — allocates nothing.
type sessionScratch struct {
	rd    *wire.Reader
	wr    *wire.Writer // the result frame's writer
	frame wire.Frame
	chk   monitor.Checker
}

var scratchPool = sync.Pool{
	New: func() any { return &sessionScratch{rd: wire.NewReader(nil), wr: wire.NewWriter(nil)} },
}

// release unpins the session's connection and returns the scratch —
// buffers intact — to the pool. The checker's Finish already dropped its
// plans.
func (sc *sessionScratch) release() {
	sc.rd.Reset(nil)
	sc.wr.Reset(nil)
	sc.frame = wire.Frame{Events: sc.frame.Events[:0]}
	scratchPool.Put(sc)
}

// sessionTap, when set, supplies each session checker's EventTap from
// the session's program name. Tests set it to inject faults into one
// session's checking; it is nil in a daemon.
var sessionTap func(program string) func(*monitor.Event)

// handle runs one monitoring session: hello, event stream, finish,
// result. Sessions are isolated — a malformed stream only ends its own
// session (the checker still checks what it received).
func (s *Server) handle(conn net.Conn) {
	s.met.sessions.Inc()
	s.met.active.Add(1)
	// endSession accounts the session exactly once: a clean finish calls
	// it before writing the result frame, so a client holding its verdict
	// always sees its session counted; every other exit accounts it on
	// return. info is set once the hello is accepted.
	var info *SessionInfo
	accounted := false
	endSession := func() {
		if accounted {
			return
		}
		accounted = true
		if info != nil {
			if info.Clean {
				s.met.clean.Inc()
			}
			s.met.events.Add(info.Stats.Events)
			s.met.violations.Add(uint64(info.Violations))
			s.logf("session end: %q clean=%t violations=%d health=%s",
				info.Program, info.Clean, info.Violations, info.Health)
		}
		s.met.active.Add(-1)
		s.sessions.Add(1)
	}
	defer endSession()
	sc := scratchPool.Get().(*sessionScratch)
	defer sc.release()
	rd := sc.rd
	rd.Reset(conn)
	rd.InstrumentRx(s.cfg.Metrics)
	// armRead re-arms the per-frame read deadline: a connection that goes
	// silent past IdleTimeout ends its session instead of pinning a
	// goroutine and a checker forever.
	armRead := func() {
		if s.cfg.IdleTimeout > 0 {
			_ = conn.SetReadDeadline(time.Now().Add(s.cfg.IdleTimeout))
		}
	}
	armRead()
	if err := rd.ReadFrameInto(&sc.frame); err != nil {
		if errors.Is(err, wire.ErrVersion) {
			// A peer of another codec version: tell it why instead of
			// just hanging up.
			s.refuse(conn, err.Error())
			return
		}
		s.logf("session rejected: reading hello: %v", err)
		return
	}
	if sc.frame.Type != wire.FrameHello {
		s.logf("session rejected: first frame is type 0x%02x, not hello", sc.frame.Type)
		return
	}
	hello := sc.frame.Hello
	if hello.Threads < 1 || hello.Threads > s.cfg.MaxThreads {
		s.logf("session rejected: %q claims %d threads (max %d)", hello.Program, hello.Threads, s.cfg.MaxThreads)
		return
	}
	cfg := monitor.Config{
		NumThreads:    hello.Threads,
		Plans:         hello.PlanTable(),
		QueueCap:      s.cfg.QueueCap,
		StallDeadline: s.cfg.StallDeadline,
		Metrics:       s.cfg.Metrics,
	}
	if sessionTap != nil {
		cfg.EventTap = sessionTap(hello.Program)
	}
	chk := &sc.chk
	if err := chk.Reset(cfg); err != nil {
		s.logf("session rejected: %q: monitor: %v", hello.Program, err)
		return
	}
	s.logf("session start: %q, %d threads, %d plans", hello.Program, hello.Threads, len(hello.Plans))
	info = &SessionInfo{Program: hello.Program, Threads: hello.Threads}

	// The read loop checks every decoded frame itself (wire.FeedFrames):
	// no queue, no second goroutine. A panic inside the checker fails
	// the session open (Failed) without leaving this goroutine.
	f := &sc.frame
	err := rd.FeedFrames(f, chk, armRead)
	chk.Finish()
	if err != nil {
		// Connection lost or stream corrupt mid-run: the checker has
		// checked everything received so far; end the session. The client
		// side fails open on its own.
		if err != io.EOF {
			s.logf("session %q: stream error: %v", info.Program, err)
		}
		fillSession(info, chk, false)
		return
	}
	if f.Type != wire.FrameFinish {
		// Hello mid-stream or an unknown-but-valid frame: protocol
		// violation; end the session defensively.
		s.logf("session %q: unexpected frame type 0x%02x", info.Program, f.Type)
		fillSession(info, chk, false)
		return
	}
	fillSession(info, chk, true)
	res := &wire.Result{
		Health:     chk.Health(),
		Stats:      chk.Stats(),
		Violations: chk.Violations(),
	}
	endSession()
	if wt := s.writeTimeout(); wt > 0 {
		_ = conn.SetWriteDeadline(time.Now().Add(wt))
	}
	wr := sc.wr
	wr.Reset(conn)
	if err := wr.WriteResult(res); err == nil {
		err = wr.Sync()
		if err != nil {
			s.logf("session %q: writing result: %v", info.Program, err)
		}
	} else {
		s.logf("session %q: writing result: %v", info.Program, err)
	}
}

func fillSession(info *SessionInfo, chk *monitor.Checker, clean bool) {
	info.Clean = clean
	info.Violations = len(chk.Violations())
	info.Health = chk.Health()
	info.Stats = chk.Stats()
}

// ListenAndServe listens on addr (Dial syntax) and serves until Close.
func (s *Server) ListenAndServe(addr string) error {
	ln, err := Listen(addr)
	if err != nil {
		return fmt.Errorf("remote: listen %s: %w", addr, err)
	}
	return s.Serve(ln)
}

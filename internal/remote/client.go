// Package remote moves the BLOCKWATCH monitor out of the monitored
// process: a Client implements monitor.Sink by framing the event stream
// onto a TCP or unix-socket connection (wire codec), and a Server demuxes
// per-connection streams into ordinary in-process monitors, one per
// monitored program, serving many programs concurrently. The split
// follows the same driver/worker separation the parallel Astrée
// implementation uses between its analysis workers and driver, and gives
// the reproduction something the paper's in-process design cannot have:
// the checker survives independently of the monitored program, and the
// exact event stream that led to a detection can be captured and replayed
// (internal/trace shares the codec).
//
// The client fails open, extending the monitor's in-process contract
// across the process boundary: a dead or slow daemon degrades coverage
// (Health() = Degraded, events discarded and counted as drops) but never
// blocks, crashes, or false-positives the monitored program.
//
// With a spool configured (ClientConfig.SpoolPath) the client is
// self-healing instead of merely fail-open: every outbound frame is
// teed to a bounded on-disk spool (internal/spool), so when the
// connection drops or stalls the client keeps the program running at
// full speed, appending to the spool, while re-dialing under the retry
// budget. A successful reconnect replays the spool onto the fresh
// connection — the stream is self-contained, so the new session's
// verdict is byte-identical to an uninterrupted run. If the daemon
// never comes back the spool is sealed into a `bwtrace replay`-able
// trace (SealedSpool reports the path) so the verdict is computable
// offline instead of lost. Degraded, never crashed.
package remote

import (
	"errors"
	"fmt"
	"math/rand"
	"net"
	"strings"
	"sync"
	"time"

	"blockwatch/internal/core"
	"blockwatch/internal/metrics"
	"blockwatch/internal/monitor"
	"blockwatch/internal/spool"
	"blockwatch/internal/wire"
)

// DefaultResultTimeout bounds how long a closing client waits for the
// server's result frame before failing open.
const DefaultResultTimeout = 30 * time.Second

// DefaultWriteTimeout bounds each event/control frame write so a
// stalled daemon cannot block the sender forever.
const DefaultWriteTimeout = 10 * time.Second

// DefaultCoalesceBytes is the default frame-coalescing byte budget: a
// thread's event batches merge into one wire frame until the frame's
// encoded payload would pass it. 8 KiB merges roughly a
// dozen default Sender batches per frame while staying far under the
// codec's MaxPayload.
const DefaultCoalesceBytes = 8 << 10

// maxCoalesceBytes caps a configured budget well under wire.MaxPayload
// so a coalesced frame is always decodable on the far side.
const maxCoalesceBytes = wire.MaxPayload / 2

// coalesceLinger bounds how long coalesced events may wait for more of
// their thread's batches while the relay is idle. Without it an idle
// relay — the common case, since it drains faster than threads produce —
// would flush after every batch and coalescing would merge nothing.
const coalesceLinger = 5 * time.Millisecond

// Retry defaults (RetryConfig zero values).
const (
	DefaultDialTimeout   = 2 * time.Second
	DefaultRetryBase     = 50 * time.Millisecond
	DefaultRetryMax      = 2 * time.Second
	DefaultRetryJitter   = 0.2
	DefaultRetryAttempts = 1
)

// RetryConfig shapes the client's dial retry: the initial Dial, each
// mid-stream reconnect outage, and the finish-phase last chance all get
// a budget of Attempts dials separated by exponential backoff with
// jitter.
type RetryConfig struct {
	// Attempts is the dial budget per outage (0 = 1: a single attempt,
	// the pre-retry behavior).
	Attempts int
	// BaseDelay is the backoff before the second attempt
	// (0 = DefaultRetryBase); it doubles per failed attempt.
	BaseDelay time.Duration
	// MaxDelay caps the backoff (0 = DefaultRetryMax).
	MaxDelay time.Duration
	// Jitter randomizes each delay by ±Jitter fraction
	// (0 = DefaultRetryJitter; negative = no jitter).
	Jitter float64
	// DialTimeout bounds each individual dial (0 = DefaultDialTimeout).
	DialTimeout time.Duration
	// Seed seeds the jitter RNG so tests are deterministic (0 = 1).
	Seed int64
}

func (r RetryConfig) withDefaults() RetryConfig {
	if r.Attempts <= 0 {
		r.Attempts = DefaultRetryAttempts
	}
	if r.BaseDelay <= 0 {
		r.BaseDelay = DefaultRetryBase
	}
	if r.MaxDelay <= 0 {
		r.MaxDelay = DefaultRetryMax
	}
	if r.Jitter == 0 {
		r.Jitter = DefaultRetryJitter
	}
	if r.DialTimeout <= 0 {
		r.DialTimeout = DefaultDialTimeout
	}
	if r.Seed == 0 {
		r.Seed = 1
	}
	return r
}

// backoff returns the delay after the attempt-th consecutive failed
// dial (attempt >= 1): BaseDelay doubled per failure, capped at
// MaxDelay, jittered ±Jitter.
func (r RetryConfig) backoff(rng *rand.Rand, attempt int) time.Duration {
	d := r.BaseDelay
	for i := 1; i < attempt && d < r.MaxDelay; i++ {
		d *= 2
	}
	if d > r.MaxDelay {
		d = r.MaxDelay
	}
	if r.Jitter > 0 {
		d = time.Duration(float64(d) * (1 + r.Jitter*(2*rng.Float64()-1)))
	}
	return d
}

// ClientConfig configures a remote monitoring client.
type ClientConfig struct {
	// Program names the monitored program (shown by the daemon).
	Program string
	// NumThreads is the SPMD thread count.
	NumThreads int
	// Plans is the check-plan table from the local static analysis; its
	// checker-facing reduction is shipped in the hello frame.
	Plans map[int]*core.CheckPlan
	// QueueCap, Overflow and SenderBatch configure the client's
	// producer front end exactly like the in-process monitor's
	// (monitor.Config semantics). Backpressure from the connection maps
	// onto the overflow policy: a slow daemon fills the per-thread
	// queues, and the policy decides between blocking and dropping.
	QueueCap    int
	Overflow    monitor.OverflowPolicy
	SenderBatch int
	// CoalesceBytes is the frame-coalescing byte budget: each thread's
	// event batches accumulate into one wire frame until its encoded
	// payload would exceed this many bytes
	// (0 = DefaultCoalesceBytes, negative = no coalescing — one frame per
	// relay batch, the pre-coalescing shape). Coalescing cuts per-frame
	// overhead — header and CRC bytes, spool write syscalls, flushes — on
	// busy streams without adding latency where it matters: a control
	// marker (barrier) always flushes its thread's pending frame first,
	// and an idle relay flushes every pending frame once the oldest has
	// waited coalesceLinger, so frames still never span a barrier and
	// quiet periods are never stale for long.
	CoalesceBytes int
	// ResultTimeout bounds the wait for the server's result frame after
	// the finish frame (0 = DefaultResultTimeout).
	ResultTimeout time.Duration
	// WriteTimeout is the per-write deadline on event/control frames
	// (0 = DefaultWriteTimeout, negative = no deadline). A write that
	// misses it counts as a transport fault: reconnect when spooling,
	// fail open otherwise.
	WriteTimeout time.Duration
	// Retry shapes dial retry and reconnect backoff.
	Retry RetryConfig
	// SpoolPath, when non-empty, tees every outbound frame to a bounded
	// on-disk spool at that path, enabling mid-stream reconnect (exact
	// replay of the session onto a fresh connection) and seal-to-trace
	// on terminal failure. The file is removed when the session ends
	// with a daemon verdict.
	SpoolPath string
	// SpoolMaxBytes bounds the spool (0 = spool.DefaultMaxBytes). An
	// overflowed spool can no longer reconstruct the session, so
	// overflow turns the next transport fault terminal (fail open).
	SpoolMaxBytes int64
	// WrapConn, when non-nil, wraps every dialed connection (including
	// reconnects). The network-fault injector hooks here.
	WrapConn func(net.Conn) net.Conn
	// Metrics, when non-nil, receives the client's wire and session
	// metrics (bw_wire_*, bw_remote_*, bw_spool_*) plus the relay's
	// bw_relay_*.
	Metrics *metrics.Registry
}

func (cfg ClientConfig) writeTimeout() time.Duration {
	if cfg.WriteTimeout == 0 {
		return DefaultWriteTimeout
	}
	if cfg.WriteTimeout < 0 {
		return 0
	}
	return cfg.WriteTimeout
}

// clientMetrics is the client's handle set (zero value = detached).
type clientMetrics struct {
	dials       *metrics.Counter   // bw_remote_dials_total
	dialNs      *metrics.Histogram // bw_remote_dial_ns
	finishNs    *metrics.Histogram // bw_remote_finish_ns
	degraded    *metrics.Counter   // bw_remote_degraded_total
	streamErrs  *metrics.Counter   // bw_remote_stream_errors_total
	redials     *metrics.Counter   // bw_remote_redials_total
	reconnects  *metrics.Counter   // bw_remote_reconnects_total
	spoolFrames *metrics.Counter   // bw_spool_frames_total
	spoolBytes  *metrics.Counter   // bw_spool_bytes_total
	spoolOver   *metrics.Counter   // bw_spool_overflows_total
	spoolReplay *metrics.Counter   // bw_spool_replays_total
	spoolSealed *metrics.Counter   // bw_spool_sealed_total
}

func newClientMetrics(r *metrics.Registry) clientMetrics {
	if r == nil {
		return clientMetrics{}
	}
	return clientMetrics{
		dials: r.Counter("bw_remote_dials_total",
			"connections dialed to a monitoring daemon"),
		dialNs: r.Histogram("bw_remote_dial_ns",
			"dial + hello-exchange latency, ns", metrics.ExpBuckets(10_000, 4, 10)),
		finishNs: r.Histogram("bw_remote_finish_ns",
			"finish-protocol latency (finish frame out to result frame in), ns",
			metrics.ExpBuckets(10_000, 4, 10)),
		degraded: r.Counter("bw_remote_degraded_total",
			"sessions that ended degraded (fail-open outcome)"),
		streamErrs: r.Counter("bw_remote_stream_errors_total",
			"transport faults on the event stream (write errors, timeouts)"),
		redials: r.Counter("bw_remote_redials_total",
			"reconnect dial attempts after a transport fault"),
		reconnects: r.Counter("bw_remote_reconnects_total",
			"successful reconnects (spool replayed onto a fresh connection)"),
		spoolFrames: r.Counter("bw_spool_frames_total",
			"frames appended to the on-disk spool"),
		spoolBytes: r.Counter("bw_spool_bytes_total",
			"bytes appended to the on-disk spool"),
		spoolOver: r.Counter("bw_spool_overflows_total",
			"spools that hit their byte bound"),
		spoolReplay: r.Counter("bw_spool_replays_total",
			"spool replays onto a fresh connection"),
		spoolSealed: r.Counter("bw_spool_sealed_total",
			"spools sealed into offline-replayable traces"),
	}
}

// Client is a monitor.Sink whose checking back end lives in a bwmonitord
// daemon. Create with Dial or NewClient, then use exactly like a
// monitor.Monitor: Start, per-thread Senders, Close, then
// Detected/Violations/Health/Stats.
type Client struct {
	*monitor.Relay
	cfg ClientConfig
	met clientMetrics

	// Connection and spool state. Written by the constructor before the
	// relay exists and by the relay goroutine afterwards; read elsewhere
	// only after Relay.Close has joined the relay goroutine.
	addr      string // "" = reconnect disabled (NewClient over a given conn)
	conn      net.Conn
	codec     *codec // c.wr and the finish reader, from codecPool
	wr        *wire.Writer
	connected bool
	dirty     bool // frames buffered in wr, not yet flushed to the conn
	terminal  bool // mid-run retry budget exhausted
	attempt   int  // consecutive failed dials in the current outage
	nextDial  time.Time
	rng       *rand.Rand

	sp         *spool.Spool
	spoolDead  bool // spool overflowed or its disk write failed
	sealedPath string
	reconnects int

	// Why the session may end without a live verdict: the first
	// transport error, and the daemon's reject reason once one is read,
	// which explains the transport errors that follow it.
	failure  error
	rejected error

	// Frame coalescer (relay goroutine only): each thread slot's branch
	// events accumulate toward a single merged wire frame. coBudget is
	// the encoded-payload byte budget (0 = coalescing disabled);
	// coPending counts slots holding events, the oldest buffered since
	// coSince.
	coBudget  int
	co        []coalesced
	coPending int
	coSince   time.Time
}

// coalesced is one thread slot's pending coalesced events.
type coalesced struct {
	evs   []monitor.Event
	bytes int
}

// SplitAddr resolves the CLI address syntax into a (network, address)
// pair for net.Dial/net.Listen: "unix:<path>" or any address containing
// a path separator selects a unix socket; everything else is TCP.
func SplitAddr(addr string) (network, address string) {
	if rest, ok := strings.CutPrefix(addr, "unix:"); ok {
		return "unix", rest
	}
	if rest, ok := strings.CutPrefix(addr, "tcp:"); ok {
		return "tcp", rest
	}
	if strings.ContainsRune(addr, '/') {
		return "unix", addr
	}
	return "tcp", addr
}

// Dial connects to a bwmonitord daemon under the retry budget and
// performs the hello exchange. Without a spool, exhausting the budget is
// a synchronous error (a daemon that was never there is a configuration
// problem). With a spool, Dial always returns a working client: if the
// daemon is unreachable the session starts disconnected, events spool to
// disk, and the client keeps re-dialing mid-run and at finish.
func Dial(addr string, cfg ClientConfig) (*Client, error) {
	var t0 time.Time
	if cfg.Metrics != nil {
		t0 = time.Now()
	}
	c, err := newClient(cfg)
	if err != nil {
		return nil, err
	}
	c.addr = addr
	dialErr := c.connectBlocking(c.cfg.Retry.Attempts)
	if dialErr != nil {
		if c.sp == nil {
			return nil, fmt.Errorf("remote monitor: %w", dialErr)
		}
		// Self-healing start: run disconnected, spool, retry mid-run.
		c.attempt = 0
		c.nextDial = time.Now().Add(c.cfg.Retry.backoff(c.rng, 1))
	}
	if err := c.buildRelay(); err != nil {
		c.teardown()
		return nil, err
	}
	if dialErr != nil {
		c.failure = dialErr
		c.Degrade()
	}
	c.met.dials.Inc()
	if cfg.Metrics != nil {
		c.met.dialNs.Observe(time.Since(t0).Nanoseconds())
	}
	return c, nil
}

// NewClient builds a client over an established connection and writes
// the hello frame. Construction errors are returned synchronously (a
// daemon that refuses the hello is a configuration problem, not a
// mid-run failure, so it does not fail open). Reconnect is disabled —
// the client does not know how to re-dial a connection it was handed —
// but a configured spool still tees the stream and seals it on failure.
func NewClient(conn net.Conn, cfg ClientConfig) (*Client, error) {
	c, err := newClient(cfg)
	if err != nil {
		return nil, err
	}
	c.adopt(conn)
	if err := c.writeHello(); err != nil {
		c.teardown()
		return nil, fmt.Errorf("remote monitor hello: %w", err)
	}
	if err := c.buildRelay(); err != nil {
		c.teardown()
		return nil, err
	}
	return c, nil
}

// newClient validates the config and sets up everything except the
// connection: metrics, retry state, and the spool (which immediately
// stores the hello so a replay is always self-contained).
func newClient(cfg ClientConfig) (*Client, error) {
	if cfg.NumThreads < 1 {
		return nil, monitor.ErrNoThreads
	}
	if cfg.Plans == nil {
		return nil, monitor.ErrNoPlans
	}
	if cfg.ResultTimeout <= 0 {
		cfg.ResultTimeout = DefaultResultTimeout
	}
	cfg.Retry = cfg.Retry.withDefaults()
	c := &Client{
		cfg: cfg,
		met: newClientMetrics(cfg.Metrics),
		rng: rand.New(rand.NewSource(cfg.Retry.Seed)),
	}
	switch {
	case cfg.CoalesceBytes == 0:
		c.coBudget = DefaultCoalesceBytes
	case cfg.CoalesceBytes > 0:
		c.coBudget = min(cfg.CoalesceBytes, maxCoalesceBytes)
	}
	if cfg.SpoolPath != "" {
		sp, err := spool.Create(cfg.SpoolPath, cfg.SpoolMaxBytes, c.hello())
		if err != nil {
			return nil, fmt.Errorf("remote monitor: %w", err)
		}
		c.sp = sp
		c.met.spoolFrames.Inc()
		c.met.spoolBytes.Add(uint64(sp.Size()))
	}
	return c, nil
}

func (c *Client) hello() *wire.Hello {
	return wire.HelloFromPlans(c.cfg.Program, c.cfg.NumThreads, c.cfg.Plans)
}

func (c *Client) buildRelay() error {
	relay, err := monitor.NewRelay(monitor.RelayConfig{
		NumThreads:  c.cfg.NumThreads,
		QueueCap:    c.cfg.QueueCap,
		Overflow:    c.cfg.Overflow,
		SenderBatch: c.cfg.SenderBatch,
		Stream:      (*clientStream)(c),
		Finish:      c.finish,
		Metrics:     c.cfg.Metrics,
	})
	if err != nil {
		return err
	}
	c.Relay = relay
	return nil
}

// teardown releases constructor-held resources on an error path.
func (c *Client) teardown() {
	if c.conn != nil {
		c.conn.Close()
	}
	if c.sp != nil {
		c.sp.Remove()
	}
}

// Close drains and closes the relay (running the finish protocol), then
// closes the connection. Idempotent.
func (c *Client) Close() {
	c.Relay.Close()
	if c.conn != nil {
		c.conn.Close()
	}
	if c.codec != nil {
		c.codec.wr.Reset(nil)
		c.codec.rd.Reset(nil)
		codecPool.Put(c.codec)
		c.codec, c.wr = nil, nil
	}
}

// codec is a connection's frame writer and result reader, each with a
// 32 KiB buffer. A session is often only a few milliseconds long, so the
// codecs of closed clients are pooled for the next connection instead of
// being garbage every session.
type codec struct {
	wr *wire.Writer
	rd *wire.Reader
}

var codecPool = sync.Pool{
	New: func() any { return &codec{wr: wire.NewWriter(nil), rd: wire.NewReader(nil)} },
}

// SealedSpool returns the path of the sealed, `bwtrace replay`-able
// spool when the session ended without a daemon verdict, "" otherwise.
// Meaningful after Close.
func (c *Client) SealedSpool() string { return c.sealedPath }

// Reconnects reports how many times the session recovered a dropped
// connection by replaying the spool. Meaningful after Close.
func (c *Client) Reconnects() int { return c.reconnects }

// adopt installs conn as the live connection.
func (c *Client) adopt(conn net.Conn) {
	c.conn = conn
	if c.codec == nil {
		c.codec = codecPool.Get().(*codec)
	}
	c.wr = c.codec.wr
	c.wr.Reset(conn)
	c.wr.InstrumentTx(c.cfg.Metrics)
	c.connected = true
	c.dirty = false
	c.attempt = 0
}

// writeHello sends the hello over the live writer (the no-spool path;
// with a spool, connects replay the spooled hello instead).
func (c *Client) writeHello() error {
	if err := c.wr.WriteHello(c.hello()); err != nil {
		return err
	}
	return c.wr.Sync()
}

// deadlineWriter re-arms the write deadline before every write; the
// spool replay streams through it so a stalled daemon cannot wedge a
// reconnect either.
type deadlineWriter struct {
	conn    net.Conn
	timeout time.Duration
}

func (d *deadlineWriter) Write(p []byte) (int, error) {
	if d.timeout > 0 {
		_ = d.conn.SetWriteDeadline(time.Now().Add(d.timeout))
	}
	return d.conn.Write(p)
}

// dialOnce makes one connection attempt and, on success, makes the new
// connection current: with a spool the whole session history (hello
// first) is replayed onto it, so the daemon sees a complete fresh
// session; without one the hello is written directly.
func (c *Client) dialOnce() error {
	network, address := SplitAddr(c.addr)
	d := net.Dialer{Timeout: c.cfg.Retry.DialTimeout}
	conn, err := d.Dial(network, address)
	if err != nil {
		return err
	}
	if c.cfg.WrapConn != nil {
		conn = c.cfg.WrapConn(conn)
	}
	if c.sp != nil {
		if _, err := c.sp.ReplayTo(&deadlineWriter{conn: conn, timeout: c.cfg.writeTimeout()}); err != nil {
			if rej := c.readReject(conn); rej != nil {
				c.rejected, err = rej, rej
			}
			conn.Close()
			return fmt.Errorf("spool replay: %w", err)
		}
		c.met.spoolReplay.Inc()
	}
	wasLive := c.conn != nil
	c.adopt(conn)
	if c.sp == nil {
		if err := c.writeHello(); err != nil {
			if rej := c.readReject(conn); rej != nil {
				c.rejected, err = rej, rej
			}
			c.dropConn()
			return err
		}
	} else if wasLive {
		c.reconnects++
		c.met.reconnects.Inc()
	}
	return nil
}

// connectBlocking dials under a budget with real backoff sleeps (the
// initial Dial and the finish phase, where blocking is acceptable).
func (c *Client) connectBlocking(budget int) error {
	var err error
	for i := 0; i < budget; i++ {
		if i > 0 {
			time.Sleep(c.cfg.Retry.backoff(c.rng, i))
		}
		c.met.redials.Inc()
		if err = c.dialOnce(); err == nil {
			return nil
		}
	}
	return err
}

// dropConn closes the live connection and marks the client
// disconnected. The next stream call may re-dial immediately.
func (c *Client) dropConn() {
	if c.conn != nil {
		c.conn.Close()
	}
	c.connected = false
	c.dirty = false
}

// onStreamError handles a transport fault on the live connection:
// degrade (a detector fault happened, even if we recover), drop the
// connection, and schedule an immediate reconnect attempt.
func (c *Client) onStreamError(err error) {
	c.met.streamErrs.Inc()
	if c.failure == nil {
		c.failure = err
	}
	if c.rejected == nil {
		if errors.Is(err, errRejected) {
			c.rejected = err
		} else {
			c.rejected = c.readReject(c.conn)
		}
	}
	c.Degrade()
	c.dropConn()
	c.attempt = 0
	c.nextDial = time.Now()
}

// errRejected marks the error of a reject frame: the daemon refused the
// session and said why.
var errRejected = errors.New("session rejected")

// rejectWait bounds the look for a reject frame after a transport error.
// A daemon writes the frame before it closes the connection, so a frame
// that was sent is already buffered when the close surfaces as an error.
const rejectWait = time.Millisecond

// readReject reads the reject frame a daemon sent before closing conn,
// and returns its reason as an error (nil when none came).
func (c *Client) readReject(conn net.Conn) error {
	if conn == nil {
		return nil
	}
	if c.codec == nil {
		c.codec = codecPool.Get().(*codec)
	}
	_ = conn.SetReadDeadline(time.Now().Add(rejectWait))
	rd := c.codec.rd
	rd.Reset(conn)
	f, err := rd.ReadFrame()
	if err != nil || f.Type != wire.FrameReject {
		return nil
	}
	return fmt.Errorf("%w: %s", errRejected, f.Reject)
}

// cause is the error finish reports when no verdict arrived: the
// daemon's reject reason when it gave one, else fallback.
func (c *Client) cause(fallback error) error {
	err := fallback
	if c.rejected != nil {
		err = c.rejected
	}
	if err == nil {
		return nil
	}
	return fmt.Errorf("remote monitor: %w", err)
}

// canReconnect reports whether a mid-run reconnect is possible: it
// needs an address to re-dial and an intact spool to replay.
func (c *Client) canReconnect() bool {
	return c.addr != "" && c.sp != nil && !c.spoolDead && !c.terminal
}

// maybeReconnect makes at most one non-blocking reconnect attempt,
// honoring the backoff schedule. Called from the stream path, so it
// must never sleep: between attempts the program keeps running and
// events keep spooling.
func (c *Client) maybeReconnect() {
	if c.connected || !c.canReconnect() || time.Now().Before(c.nextDial) {
		return
	}
	c.met.redials.Inc()
	if err := c.dialOnce(); err != nil {
		c.attempt++
		if c.attempt >= c.cfg.Retry.Attempts {
			// Budget exhausted: stop dialing mid-run. The spool keeps
			// absorbing events; the finish phase gets one last budget.
			c.terminal = true
			return
		}
		c.nextDial = time.Now().Add(c.cfg.Retry.backoff(c.rng, c.attempt))
	}
}

// spoolTee appends one frame's worth of stream to the spool, tracking
// metrics and the spool's health.
func (c *Client) spoolTee(write func() error) {
	if c.sp == nil || c.spoolDead {
		return
	}
	before := c.sp.Size()
	if err := write(); err != nil {
		c.spoolDead = true
		if err == spool.ErrSpoolFull {
			c.met.spoolOver.Inc()
		}
		c.Degrade() // resilience lost even if the live stream is fine
		return
	}
	c.met.spoolFrames.Inc()
	c.met.spoolBytes.Add(uint64(c.sp.Size() - before))
}

// clientStream adapts the client to the relay's EventStream. Calls
// arrive only from the relay goroutine.
type clientStream Client

// status translates the client's post-call state into the relay
// contract: nil while the frame is safely on the wire or in the spool,
// the transport error once neither holds (relay switches to fail-open
// discard mode).
func (c *Client) status(err error) error {
	if c.connected || (c.sp != nil && !c.spoolDead) {
		return nil
	}
	if err != nil {
		return err
	}
	return fmt.Errorf("remote monitor: connection lost and spool unavailable")
}

func (c *Client) armWrite() {
	if wt := c.cfg.writeTimeout(); wt > 0 {
		_ = c.conn.SetWriteDeadline(time.Now().Add(wt))
	}
}

func (s *clientStream) StreamEvents(slot int, evs []monitor.Event) error {
	c := (*Client)(s)
	if c.coBudget > 0 {
		return c.coalesce(slot, evs)
	}
	return c.writeEvents(slot, evs)
}

// coalesce buffers one relay batch toward its thread slot's merged
// frame, flushing that frame first when the byte budget would be passed.
// Each slot buffers separately, so the relay's round-robin over threads
// does not split frames. The buffered events are safe: a slot flushes
// before its own control markers, everything flushes once the oldest
// pending batch has lingered through relay idle and before the finish
// protocol, and events only enter the spool when their frame is encoded
// — so a reconnect replay can never duplicate them.
func (c *Client) coalesce(slot int, evs []monitor.Event) error {
	for slot >= len(c.co) {
		c.co = append(c.co, coalesced{})
	}
	p := &c.co[slot]
	add := wire.EventsSize(slot, evs)
	if len(p.evs) > 0 && p.bytes+add+wire.EventsFrameOverhead > c.coBudget {
		if err := c.flushSlot(slot); err != nil {
			return err
		}
	}
	if len(p.evs) == 0 {
		if c.coPending == 0 {
			c.coSince = time.Now()
		}
		c.coPending++
	}
	p.evs = append(p.evs, evs...)
	p.bytes += add
	if p.bytes+wire.EventsFrameOverhead >= c.coBudget {
		return c.flushSlot(slot)
	}
	return c.status(nil)
}

// flushSlot encodes one slot's pending coalesced events as one wire
// frame (no-op when it has none).
func (c *Client) flushSlot(slot int) error {
	if slot >= len(c.co) || len(c.co[slot].evs) == 0 {
		return c.status(nil)
	}
	p := &c.co[slot]
	err := c.writeEvents(slot, p.evs)
	p.evs = p.evs[:0]
	p.bytes = 0
	c.coPending--
	return err
}

// flushCoalesced flushes every slot's pending coalesced events, in slot
// order.
func (c *Client) flushCoalesced() error {
	for slot := 0; c.coPending > 0 && slot < len(c.co); slot++ {
		if err := c.flushSlot(slot); err != nil {
			return err
		}
	}
	return c.status(nil)
}

// writeEvents puts one events frame onto the stream: reconnect BEFORE
// teeing the frame — a successful redial replays the spool, so appending
// first would send this frame twice (once in the replay, once live) and
// fabricate duplicate events — then the spool tee, then the live write.
func (c *Client) writeEvents(slot int, evs []monitor.Event) error {
	c.maybeReconnect()
	c.spoolTee(func() error { return c.sp.WriteEvents(slot, evs) })
	var err error
	if c.connected {
		c.armWrite()
		if err = c.wr.WriteEvents(slot, evs); err != nil {
			c.onStreamError(err)
		} else {
			c.dirty = true
		}
	}
	return c.status(err)
}

func (s *clientStream) StreamControl(slot int, ev monitor.Event) error {
	c := (*Client)(s)
	// A control marker is a barrier edge: the thread's pending coalesced
	// events must hit the stream (and the spool) first so a frame never
	// spans its barrier. Other threads' events are not ordered against
	// this marker, so they keep coalescing.
	if err := c.flushSlot(slot); err != nil {
		return err
	}
	write := func(w interface {
		WriteFlush(int, int32) error
		WriteDone(int, int32) error
	}) error {
		if ev.Kind == monitor.EvFlush {
			return w.WriteFlush(slot, ev.Thread)
		}
		return w.WriteDone(slot, ev.Thread) // the relay forwards no other kinds
	}
	c.maybeReconnect() // before the tee — see writeEvents
	c.spoolTee(func() error { return write(c.sp) })
	var err error
	if c.connected {
		c.armWrite()
		// Control markers are barrier edges: flush the buffered writer so
		// a dead daemon surfaces at a frame boundary, not a buffer-full.
		if err = write(c.wr); err == nil {
			err = c.wr.Sync()
		}
		if err != nil {
			c.onStreamError(err)
		} else {
			c.dirty = false
		}
	}
	return c.status(err)
}

// StreamIdle is the relay's quiet-period hook: flush buffered frames so
// a broken transport is noticed between bursts, and pace reconnect
// attempts while the daemon is down. It returns the next of those duties
// that falls due — the coalesce linger of a pending batch, the next
// reconnect dial — so a parked relay wakes in time for it.
func (s *clientStream) StreamIdle() (time.Duration, error) {
	c := (*Client)(s)
	// A quiet relay means no more batches are coming for now: once the
	// oldest pending batch has lingered, the coalescer must not sit on
	// events across the idle gap.
	if c.coPending > 0 && time.Since(c.coSince) >= coalesceLinger {
		if err := c.flushCoalesced(); err != nil {
			return 0, err
		}
	}
	c.maybeReconnect()
	var err error
	if c.connected && c.dirty {
		c.armWrite()
		if err = c.wr.Sync(); err != nil {
			c.onStreamError(err)
		} else {
			c.dirty = false
		}
	}
	if err = c.status(err); err != nil {
		return 0, err
	}
	return c.nextIdleDuty(), nil
}

// nextIdleDuty is how long until StreamIdle has timed work again: the
// linger deadline of the oldest coalesced batch, or the next reconnect
// dial while disconnected. Zero means no timed duty.
func (c *Client) nextIdleDuty() time.Duration {
	var next time.Duration
	due := func(at time.Time) {
		d := time.Until(at)
		if d <= 0 {
			d = time.Millisecond // overdue: retry shortly, never spin
		}
		if next == 0 || d < next {
			next = d
		}
	}
	if c.coPending > 0 {
		due(c.coSince.Add(coalesceLinger))
	}
	if !c.connected && c.canReconnect() {
		due(c.nextDial)
	}
	return next
}

// finish completes the protocol on the relay goroutine: finish frame
// out, result frame in — reconnecting under one last retry budget if
// the connection is down or dies mid-protocol. When no connection can
// be had, the spool is sealed into an offline-replayable trace and the
// degraded outcome the fail-open contract promises is reported.
func (c *Client) finish(broken bool) (monitor.RelayOutcome, error) {
	// Any coalesced remainder must precede the finish frame (clean path)
	// or make it into the sealed prefix (broken path).
	_ = c.flushCoalesced()
	if broken {
		// The relay already discarded events: no complete stream exists
		// anywhere, so there is nothing to replay. Seal whatever prefix
		// the spool holds (a truncated trace is still evidence).
		c.met.degraded.Inc()
		c.dropConn()
		c.seal()
		return monitor.RelayOutcome{Health: monitor.Degraded}, c.cause(c.failure)
	}
	var t0 time.Time
	if c.met.finishNs != nil {
		t0 = time.Now()
	}
	// The program is done: blocking is acceptable now, so the finish
	// phase gets a fresh budget of real backoff-separated dials, capped
	// across protocol retries (a daemon that accepts and immediately
	// drops connections must not loop us forever).
	budget := c.cfg.Retry.Attempts
	var lastErr error
	for {
		if !c.connected {
			if c.addr == "" || c.sp == nil || c.spoolDead || budget <= 0 {
				break
			}
			used := c.cfg.Retry.Attempts - budget
			if used > 0 {
				time.Sleep(c.cfg.Retry.backoff(c.rng, used))
			}
			budget--
			c.met.redials.Inc()
			if err := c.dialOnce(); err != nil {
				lastErr = err
				continue
			}
		}
		res, err := c.finishOnce()
		if err == nil {
			if c.met.finishNs != nil {
				c.met.finishNs.Observe(time.Since(t0).Nanoseconds())
			}
			if res.Health != monitor.Healthy {
				c.met.degraded.Inc()
			}
			if c.sp != nil {
				c.sp.Remove() // verdict obtained: the buffer served its purpose
			}
			return monitor.RelayOutcome{
				Detected:   res.Detected(),
				Violations: res.Violations,
				Stats:      res.Stats,
				Health:     res.Health,
			}, nil
		}
		lastErr = err
		c.onStreamError(err)
	}
	// No daemon verdict. Seal the spool so the verdict is computable
	// offline, and fail open.
	c.met.degraded.Inc()
	c.seal()
	return monitor.RelayOutcome{Health: monitor.Degraded}, c.cause(lastErr)
}

// finishOnce runs one attempt of the finish protocol on the live
// connection.
func (c *Client) finishOnce() (*wire.Result, error) {
	c.armWrite()
	if err := c.wr.WriteFinish(); err != nil {
		return nil, err
	}
	if err := c.wr.Sync(); err != nil {
		return nil, err
	}
	c.dirty = false
	_ = c.conn.SetReadDeadline(time.Now().Add(c.cfg.ResultTimeout))
	rd := c.codec.rd
	rd.Reset(c.conn)
	rd.InstrumentRx(c.cfg.Metrics)
	for {
		f, err := rd.ReadFrame()
		if err != nil {
			return nil, err
		}
		switch f.Type {
		case wire.FrameResult:
			return f.Result, nil
		case wire.FrameReject:
			return nil, fmt.Errorf("%w: %s", errRejected, f.Reject)
		default:
			// tolerate future frame types before the result
		}
	}
}

// seal turns the spool into an offline-replayable trace and records its
// path. On an unusable spool (disk error) sealing fails quietly — the
// degraded outcome already tells the caller coverage was lost.
func (c *Client) seal() {
	if c.sp == nil {
		return
	}
	if err := c.sp.Seal(nil); err == nil {
		c.sealedPath = c.sp.Path()
		c.met.spoolSealed.Inc()
	}
	c.sp.Close()
}

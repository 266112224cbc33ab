package monitor

import (
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"blockwatch/internal/metrics"
)

// Relay is a Sink whose back end is a stream instead of a checker: it
// embeds the monitor's producer front end — per-thread lock-free SPSC
// queues, batching Senders, the overflow policies, the fail-open health
// machine — but its drain goroutine forwards events to an EventStream
// (a remote connection, a trace file, or both) rather than a hash table.
// The out-of-process client (internal/remote) and the trace recorder
// (internal/trace) are both Relays with different streams.
//
// Ordering contract: events of one thread are streamed in exactly the
// order that thread produced them (per-queue FIFO), and control markers
// are forwarded as explicit stream calls, so the consuming side's
// generation gating sees the same per-thread prefix structure an
// in-process monitor would. Cross-thread interleaving is not preserved —
// it is not meaningful in-process either.
//
// Failure contract (fail-open): if the stream errors, the relay degrades
// to Degraded, keeps draining so producers are never wedged, counts the
// discarded branch events as drops, and still tracks done markers so
// Close terminates. The program always runs to completion.
type Relay struct {
	frontEnd
	cfg RelayConfig
	met relayMetrics

	mu        sync.Mutex
	outcome   RelayOutcome
	finishErr error

	allDone bool // written by the drain loop before done closes

	started atomic.Bool
	closed  atomic.Bool
	stop    chan struct{}
	done    chan struct{}
}

// EventStream is the relay's back end. Calls arrive from the single
// relay goroutine, already ordered per thread; evs slices are only valid
// for the duration of the call. Returning an error switches the relay
// into discard mode (fail-open): no further stream calls are made.
type EventStream interface {
	// StreamEvents delivers a batch of branch events produced by thread
	// slot (contiguous in that thread's event order, never spanning a
	// control marker).
	StreamEvents(slot int, evs []Event) error
	// StreamControl delivers one control marker (EvFlush or EvDone)
	// produced by thread slot.
	StreamControl(slot int, ev Event) error
}

// StreamIdler is an optional EventStream extension. When the stream
// implements it, the relay calls StreamIdle (on the relay goroutine)
// each time the drain loop finds every queue empty. Streams use the
// hook to do deferred work that must not ride the hot path — flush a
// write buffer so a dead transport is noticed during quiet periods, or
// pace reconnect attempts while the daemon is down. The returned
// duration is the stream's next timed duty: a relay that parks wakes
// within it to call StreamIdle again; zero or less means none, and the
// relay parks until a producer publishes. Returning an error switches
// the relay into discard mode, exactly like a failed stream call.
type StreamIdler interface {
	StreamIdle() (time.Duration, error)
}

// RelayOutcome is the checking outcome the stream's finisher reports
// back once the run ends; the relay serves it through Detected,
// Violations, Health and Stats.
type RelayOutcome struct {
	Detected   bool
	Violations []Violation
	Stats      Stats
	Health     HealthState
}

// RelayConfig configures a Relay.
type RelayConfig struct {
	// NumThreads is the number of producing program threads.
	NumThreads int
	// QueueCap overrides the per-thread queue capacity (0 = default).
	QueueCap int
	// Overflow selects the branch-event overflow policy (same semantics
	// as Config.Overflow; control events always block).
	Overflow OverflowPolicy
	// SenderBatch is the per-thread Sender buffer size (0 = default).
	SenderBatch int
	// Stream receives the ordered event stream.
	Stream EventStream
	// Finish runs on the relay goroutine after the last event has been
	// streamed (every thread done, or Close after a final drain). broken
	// reports whether the stream failed mid-run; when true the finisher
	// should not attempt further protocol on the stream. The returned
	// outcome is merged with the relay's own drop/quarantine counters.
	Finish func(broken bool) (RelayOutcome, error)
	// Metrics, when non-nil, receives the relay's forwarding metrics
	// (bw_relay_* and bw_sender_flush_size).
	Metrics *metrics.Registry
}

// NewRelay builds a relay. The stream is required; Finish may be nil.
func NewRelay(cfg RelayConfig) (*Relay, error) {
	if cfg.NumThreads < 1 {
		return nil, ErrNoThreads
	}
	if cfg.Stream == nil {
		return nil, ErrNoStream
	}
	r := &Relay{
		cfg:  cfg,
		met:  newRelayMetrics(cfg.Metrics),
		stop: make(chan struct{}),
		done: make(chan struct{}),
	}
	st := &status{met: r.met.quarantined}
	err := r.initFrontEnd(st, cfg.NumThreads, cfg.QueueCap, cfg.Overflow, cfg.SenderBatch, r.met.frontEndMetrics)
	if err != nil {
		return nil, err
	}
	return r, nil
}

// ErrNoStream reports a RelayConfig without an EventStream.
var ErrNoStream = errors.New("relay requires an event stream")

var _ Sink = (*Relay)(nil)

// Start launches the relay goroutine.
func (r *Relay) Start() {
	if r.started.Swap(true) {
		return
	}
	go r.loop()
}

// Close drains outstanding events through the stream, runs the finisher,
// and waits for the relay goroutine. Idempotent. Like Monitor.Close, it
// quarantines events published after a thread's EvDone that the relay
// goroutine did not forward, and a clean Close hands the queues to the
// next sink in the process.
func (r *Relay) Close() {
	if r.closed.Swap(true) {
		if r.started.Load() {
			<-r.done
		}
		return
	}
	// Closing stop first lets a never-started relay, drained synchronously
	// so a trace still captures whatever was queued, terminate even when
	// done markers never arrived.
	close(r.stop)
	if r.started.Load() {
		<-r.done
	} else {
		r.run()
	}
	// run returns once it has seen every thread's EvDone, so events a
	// thread published after its EvDone may still be in the rings.
	r.discardAll()
	r.recycleRings(r.allDone)
}

// Degrade lowers the relay's health from Healthy to Degraded (it never
// overwrites a terminal state). Streams that absorb their own errors —
// e.g. a recorder whose file went away while in-process checking is
// still fine — use it to surface the lost coverage.
func (r *Relay) Degrade() { r.degrade() }

// Health reports the relay's degradation state merged with the
// downstream outcome's (after Close).
func (r *Relay) Health() HealthState {
	local := r.frontEnd.Health()
	r.mu.Lock()
	remote := r.outcome.Health
	r.mu.Unlock()
	if remote > local {
		return remote
	}
	return local
}

// Detected reports whether the downstream checker recorded a violation
// (meaningful after Close).
func (r *Relay) Detected() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.outcome.Detected
}

// Violations returns a copy of the downstream checker's violations
// (meaningful after Close).
func (r *Relay) Violations() []Violation {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Violation, len(r.outcome.Violations))
	copy(out, r.outcome.Violations)
	return out
}

// Err returns the finisher's error: why the downstream checker gave no
// verdict (a remote daemon's reject reason, a lost connection), or nil
// when it gave one. Meaningful after Close.
func (r *Relay) Err() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.finishErr
}

// Stats returns the downstream checker's counters merged with the
// relay's own drop and quarantine counts (meaningful after Close).
func (r *Relay) Stats() Stats {
	r.mu.Lock()
	s := r.outcome.Stats
	r.mu.Unlock()
	s.Dropped += r.dropped()
	s.Quarantined += r.quarantined.Load()
	return s
}

func (r *Relay) loop() {
	defer close(r.done)
	r.run()
}

// run drains the queues until every thread's done marker has been
// forwarded (or Close fires and a final drain empties the queues), then
// runs the finisher. It is the body of both the relay goroutine and the
// synchronous never-started Close path. Between bursts it parks like the
// monitor (frontEnd.idleWait), waking in time for the stream's next timed
// duty.
func (r *Relay) run() {
	s := &relayState{
		r:        r,
		doneSeen: make([]bool, len(r.queues)),
	}
	defer func() {
		// A panicking stream must not wedge producers or leak the
		// goroutine: fail open exactly like the monitor's loop.
		if rec := recover(); rec != nil {
			r.health.Store(int32(Failed))
			s.broken = true
			for s.doneCount < len(r.queues) {
				if s.drainOnce() {
					continue
				}
				select {
				case <-r.stop:
					s.drainDry()
					s.finish()
					return
				default:
				}
				r.idleWait(r.stop, r.queued, 0)
			}
			s.finish()
		}
	}()
	for {
		progress := s.drainOnce()
		if s.doneCount >= len(r.queues) {
			s.finish()
			return
		}
		if progress {
			continue
		}
		timeout := s.idle()
		select {
		case <-r.stop:
			// Producers stopped: one final drain, then finish even if
			// some done markers never arrived (aborted run).
			s.drainDry()
			s.finish()
			return
		default:
		}
		r.idleWait(r.stop, r.queued, timeout)
	}
}

// relayState is the drain loop's goroutine-private state.
type relayState struct {
	r         *Relay
	doneSeen  []bool
	doneCount int
	broken    bool
	finished  bool
}

// drainOnce forwards one run of events from every queue, in place in the
// ring, and releases it; reports progress. A stream panic leaves the run
// unreleased, so the fail-open drain forwards it again, as drops.
func (s *relayState) drainOnce() bool {
	progress := false
	for tid, q := range s.r.queues {
		evs := q.Peek(drainBatch)
		if len(evs) == 0 {
			continue
		}
		progress = true
		s.forward(tid, evs)
		q.Release(len(evs))
	}
	return progress
}

// drainDry keeps draining until every queue stays empty.
func (s *relayState) drainDry() {
	for s.drainOnce() {
	}
}

// forward streams one run of a thread's events: contiguous runs of
// branch events go out as one StreamEvents call; control markers are
// forwarded individually and split the runs, so a streamed batch never
// spans a barrier. Unknown event kinds are quarantined (the in-process
// monitor does the same).
func (s *relayState) forward(tid int, evs []Event) {
	start := 0
	flushRun := func(end int) {
		if start < end && !s.broken {
			if err := s.r.cfg.Stream.StreamEvents(tid, evs[start:end]); err != nil {
				s.fail(tid, end-start)
			} else {
				s.r.met.batches.Inc()
				s.r.met.events.Add(uint64(end - start))
			}
		} else if start < end && s.broken {
			s.r.drop(tid, end-start)
		}
	}
	for i := range evs {
		switch evs[i].Kind {
		case EvBranch:
			continue
		case EvFlush, EvDone:
			flushRun(i)
			start = i + 1
			if evs[i].Kind == EvDone && !s.doneSeen[tid] {
				s.doneSeen[tid] = true
				s.doneCount++
			}
			if !s.broken {
				if err := s.r.cfg.Stream.StreamControl(tid, evs[i]); err != nil {
					s.fail(tid, 0)
				} else {
					s.r.met.control.Inc()
				}
			}
		default:
			flushRun(i)
			start = i + 1
			s.r.quarantine(1)
		}
	}
	flushRun(len(evs))
}

// idle gives a StreamIdler stream its quiet-period hook and returns the
// stream's next timed duty (0: none).
func (s *relayState) idle() time.Duration {
	if s.broken {
		return 0
	}
	idler, ok := s.r.cfg.Stream.(StreamIdler)
	if !ok {
		return 0
	}
	next, err := idler.StreamIdle()
	if err != nil {
		s.fail(0, 0)
		return 0
	}
	return next
}

// fail switches the relay into discard mode after a stream error.
func (s *relayState) fail(tid, lost int) {
	s.broken = true
	s.r.met.degraded.Inc()
	s.r.degrade()
	if lost > 0 {
		s.r.drop(tid, lost)
	}
}

// finish runs the configured finisher exactly once and publishes its
// outcome.
func (s *relayState) finish() {
	if s.finished {
		return
	}
	s.finished = true
	s.r.allDone = s.doneCount >= len(s.r.queues)
	if s.r.cfg.Finish == nil {
		return
	}
	outcome, err := s.r.cfg.Finish(s.broken)
	if err != nil {
		s.r.degrade()
	}
	s.r.mu.Lock()
	s.r.outcome, s.r.finishErr = outcome, err
	s.r.mu.Unlock()
}

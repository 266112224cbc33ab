package monitor

import (
	"fmt"
	"runtime"
	"sync/atomic"

	"blockwatch/internal/metrics"
	"blockwatch/internal/queue"
)

// DefaultSenderBatch is the Sender's branch-event buffer size. 64 events
// amortize the queue's atomic publish well past the point of diminishing
// returns while keeping the monitor's view of a thread at most 64 branch
// events stale — and never stale across a barrier, because control events
// flush the buffer first.
const DefaultSenderBatch = 64

// frontEnd is the fail-open producer front end that Monitor,
// Hierarchical and Relay all embed: one lock-free SPSC queue per program
// thread, the overflow policy, the per-thread drop counters, the
// quarantine counter, and the health word. Producers reach it only
// through Senders; the embedding sink's back end drains the queues.
type frontEnd struct {
	queues      []*queue.SPSC[Event]
	policy      OverflowPolicy
	spins       int
	batch       int
	drops       []atomic.Uint64 // per producing thread
	quarantined atomic.Uint64
	health      atomic.Int32
	prodMet     frontEndMetrics
}

// frontEndMetrics are the embedding sink's handles for the counters the
// front end updates (zero value = detached; updates are then single
// nil-check branches).
type frontEndMetrics struct {
	drops       *metrics.Counter
	quarantined *metrics.Counter
	flushSize   *metrics.Histogram
}

// initFrontEnd builds the per-thread queues and counters, applying the
// QueueCap (DefaultQueueCap), SendSpins (DefaultSendSpins) and
// SenderBatch (DefaultSenderBatch) defaults for non-positive values.
func (f *frontEnd) initFrontEnd(threads, queueCap int, policy OverflowPolicy, spins, batch int, met frontEndMetrics) error {
	if queueCap <= 0 {
		queueCap = DefaultQueueCap
	}
	if spins <= 0 {
		spins = DefaultSendSpins
	}
	if batch <= 0 {
		batch = DefaultSenderBatch
	}
	f.policy, f.spins, f.batch, f.prodMet = policy, spins, batch, met
	f.drops = make([]atomic.Uint64, threads)
	f.queues = make([]*queue.SPSC[Event], threads)
	for i := range f.queues {
		q, err := queue.NewSPSC[Event](queueCap)
		if err != nil {
			return fmt.Errorf("front-end queue: %w", err)
		}
		f.queues[i] = q
	}
	return nil
}

// Sender returns the batching producer handle for thread tid. At most one
// goroutine may use the Sender (it owns the thread's queue endpoint). An
// out-of-range tid yields a quarantining Sender that counts and discards
// every event.
func (f *frontEnd) Sender(tid int) *Sender {
	s := &Sender{}
	f.BindSender(s, tid)
	return s
}

// BindSender (re)binds s as the batching producer handle for thread tid,
// reusing s's existing event buffer when its capacity matches the
// configured SenderBatch. This is the pooling hook for the daemon: one
// sender table — and its per-thread batch buffers — is recycled across
// sessions instead of reallocated per connection. The bound Sender obeys
// exactly the Sender contract (including the quarantining behavior for
// an out-of-range tid).
func (f *frontEnd) BindSender(s *Sender, tid int) {
	buf := s.buf
	if tid < 0 || tid >= len(f.queues) {
		*s = Sender{buf: buf[:0], fe: f}
		return
	}
	if cap(buf) != f.batch {
		buf = make([]Event, 0, f.batch)
	}
	*s = Sender{q: f.queues[tid], buf: buf[:0], fe: f, tid: tid}
}

// drop counts n branch events of thread tid lost to the overflow policy
// or a broken back end.
func (f *frontEnd) drop(tid, n int) {
	f.drops[tid].Add(uint64(n))
	f.prodMet.drops.Add(uint64(n))
	f.degrade()
}

// quarantine counts n malformed, stale, or straggler events skipped.
func (f *frontEnd) quarantine(n int) {
	f.quarantined.Add(uint64(n))
	f.prodMet.quarantined.Add(uint64(n))
	f.degrade()
}

// degrade lowers Healthy to Degraded (never overwrites Failed).
func (f *frontEnd) degrade() {
	f.health.CompareAndSwap(int32(Healthy), int32(Degraded))
}

// Health reports the degradation state. Safe to call from any goroutine.
func (f *frontEnd) Health() HealthState { return HealthState(f.health.Load()) }

// Drops returns the per-thread counts of branch events dropped by the
// overflow policy. Safe to call from any goroutine.
func (f *frontEnd) Drops() []uint64 {
	out := make([]uint64, len(f.drops))
	for i := range f.drops {
		out[i] = f.drops[i].Load()
	}
	return out
}

// dropped sums the per-thread drop counters.
func (f *frontEnd) dropped() uint64 {
	var n uint64
	for i := range f.drops {
		n += f.drops[i].Load()
	}
	return n
}

// Sender is a per-thread batching front end to a sink's queue (obtained
// from Sender or BindSender on Monitor, Hierarchical or Relay), and the
// only way to publish events. Branch events accumulate in a thread-local
// buffer and are published with a single PushBatch when the buffer
// fills, when a control event (flush/done) must go out, or on an
// explicit Flush. Control events therefore can never overtake buffered
// branch events, and a batch never spans a barrier. A SenderBatch of 1
// makes every branch event visible as soon as it is sent.
//
// A Sender is owned by exactly one goroutine (it is the thread's queue
// producer endpoint). The overflow policy applies per buffered event:
// block spins, drop-newest counts the unsent remainder as dropped,
// block-timeout spins a bounded budget before dropping. Control events
// always block.
type Sender struct {
	q   *queue.SPSC[Event] // nil: quarantining handle (out-of-range thread)
	buf []Event
	fe  *frontEnd
	tid int
}

// Send buffers a branch event (publishing the buffer when full) or
// flushes and forwards a control event. A Sender built for an
// out-of-range thread has no queue and quarantines everything.
func (s *Sender) Send(ev Event) {
	if s.q == nil {
		s.fe.quarantine(1)
		return
	}
	if ev.Kind != EvBranch {
		s.Flush()
		for !s.q.Push(ev) {
			runtime.Gosched()
		}
		return
	}
	s.buf = append(s.buf, ev)
	if len(s.buf) == cap(s.buf) {
		s.Flush()
	}
}

// SendBatch publishes evs — a batch of branch events for this sender's
// thread, already assembled upstream (a decoded wire frame, a replayed
// trace) — straight through the queue's PushBatch under the overflow
// policy, without copying through the sender's own buffer. Buffered
// events are flushed first so per-thread order holds; evs must contain
// only branch events (the wire format guarantees an events frame never
// carries control markers). A quarantining (nil-queue) Sender counts and
// discards the whole batch. evs is not retained.
func (s *Sender) SendBatch(evs []Event) {
	if len(evs) == 0 {
		return
	}
	if s.q == nil {
		s.fe.quarantine(len(evs))
		return
	}
	s.Flush()
	s.fe.prodMet.flushSize.Observe(int64(len(evs)))
	s.publish(evs)
}

// Flush publishes the buffered branch events under the configured
// overflow policy. Callers only need it to bound staleness during long
// computation gaps — control events and Close-side drains flush
// implicitly.
func (s *Sender) Flush() {
	if s == nil || len(s.buf) == 0 {
		return
	}
	s.fe.prodMet.flushSize.Observe(int64(len(s.buf)))
	s.publish(s.buf)
	s.buf = s.buf[:0]
}

// publish pushes rest through the queue under the overflow policy. It is
// the one PushBatch choke point shared by Flush (the sender's own
// buffer) and SendBatch (a caller-owned batch).
func (s *Sender) publish(rest []Event) {
	switch s.fe.policy {
	case OverflowDropNewest:
		if n := s.q.PushBatch(rest); n < len(rest) {
			s.fe.drop(s.tid, len(rest)-n)
		}
	case OverflowBlockTimeout:
		spins := s.fe.spins
		for len(rest) > 0 {
			n := s.q.PushBatch(rest)
			rest = rest[n:]
			if len(rest) == 0 {
				break
			}
			if spins <= 0 {
				s.fe.drop(s.tid, len(rest))
				break
			}
			spins--
			runtime.Gosched()
		}
	default: // OverflowBlock
		for len(rest) > 0 {
			n := s.q.PushBatch(rest)
			rest = rest[n:]
			if len(rest) > 0 {
				runtime.Gosched()
			}
		}
	}
}

// Unbind clears the sender's sink references while keeping its event
// buffer, so a pooled sender table does not pin a finished session's
// monitor. A following BindSender (or discarding the Sender) makes it
// usable again; an unbound Sender must not be used.
func (s *Sender) Unbind() {
	buf := s.buf
	*s = Sender{buf: buf[:0]}
}

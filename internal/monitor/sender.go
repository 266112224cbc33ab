package monitor

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
	"unsafe"

	"blockwatch/internal/metrics"
	"blockwatch/internal/queue"
)

// DefaultSenderBatch is the Sender's branch-event buffer size. 64 events
// amortize the queue's atomic publish well past the point of diminishing
// returns while keeping the monitor's view of a thread at most 64 branch
// events stale — and never stale across a barrier, because control events
// flush the buffer first.
const DefaultSenderBatch = 64

// idleSpins is how many consecutive idle drain rounds a consumer yields
// the processor (runtime.Gosched) before it parks. A short spin keeps the
// wake-up cost off bursts separated by brief gaps — a barrier, a lock
// hand-off — while a longer quiet period gives the core back to the
// program.
const idleSpins = 64

// frontEnd is the fail-open producer front end that Monitor and Relay
// both embed: one lock-free SPSC queue per program thread, the overflow
// policy, the per-thread drop counters, the quarantine counter, and the
// health word. Producers reach it only through Senders; the embedding
// sink's back end drains the queues.
type frontEnd struct {
	queues      []*queue.SPSC[Event] // nil once handed on (recycleRings)
	queuesMu    sync.Mutex           // orders QueueBacklog against the hand-off
	policy      OverflowPolicy
	batch       int
	drops       []atomic.Uint64 // per producing thread
	quarantined atomic.Uint64
	health      atomic.Int32
	prodMet     frontEndMetrics
	park        parker
}

// parker is the consumer's spin-then-park state (see frontEnd.idleWait). The
// padding keeps the consumer's per-round writes to spun off the cache
// line that producers read on every publish.
type parker struct {
	parked atomic.Bool   // the consumer is blocked, or about to block, on wake
	wake   chan struct{} // one slot: a pending wake-up
	_      [64]byte
	spun   int         // consumer-private: consecutive idle rounds spun
	timer  *time.Timer // consumer-private: the park timer, reused
}

// frontEndMetrics are the embedding sink's handles for the counters the
// front end updates (zero value = detached; updates are then single
// nil-check branches).
type frontEndMetrics struct {
	drops       *metrics.Counter
	quarantined *metrics.Counter
	flushSize   *metrics.Histogram
	parks       *metrics.Counter
}

// initFrontEnd builds the per-thread queues and counters, applying the
// QueueCap (DefaultQueueCap) and SenderBatch (DefaultSenderBatch)
// defaults for non-positive values.
func (f *frontEnd) initFrontEnd(threads, queueCap int, policy OverflowPolicy, batch int, met frontEndMetrics) error {
	if queueCap <= 0 {
		queueCap = DefaultQueueCap
	}
	if batch <= 0 {
		batch = DefaultSenderBatch
	}
	f.policy, f.batch, f.prodMet = policy, batch, met
	f.park.wake = make(chan struct{}, 1)
	f.drops = make([]atomic.Uint64, threads)
	if f.queues = takeRings(threads, queue.RoundCap(queueCap)); f.queues != nil {
		return nil
	}
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

// spareRingBytes caps the ring set kept for the next sink: at
// DefaultQueueCap it holds up to six threads' queues (640 KiB each).
const spareRingBytes = 4 << 20

// spareRings holds up to two idle ring sets (one queue per thread) for
// the next Monitors or Relays in the process, in a two-slot channel for
// the same reasons as the spare table: a process that is both a client
// and a daemon — the remote client's Relay and the daemon session's
// Monitor — keeps a set for each.
var spareRings = make(chan []*queue.SPSC[Event], 2)

// takeRings returns a spare ring set, reset, that has exactly threads
// queues of capacity capacity, or nil. Spares that do not fit are
// dropped on the way, so the ring sets of the latest configurations are
// the ones kept.
func takeRings(threads, capacity int) []*queue.SPSC[Event] {
	for range cap(spareRings) {
		select {
		case rings := <-spareRings:
			if len(rings) != threads || rings[0].Cap() != capacity {
				continue
			}
			for _, q := range rings {
				q.Reset()
			}
			return rings
		default:
			return nil
		}
	}
	return nil
}

// recycleRings offers the front end's rings as a spare of the process. It
// runs in the embedding sink's Close, after the consumer goroutine has
// exited, never on that goroutine: a producer may still publish after
// its thread's EvDone was consumed (a daemon session's read loop does,
// up to its finish frame), and only Close is ordered after the last
// publish. allDone reports that the consumer saw every thread's EvDone.
// The rings are kept only when that holds, every queue is empty and the
// consumer did not fail; otherwise they are left to the garbage
// collector, so no event of this run can reach another sink.
func (f *frontEnd) recycleRings(allDone bool) {
	if !allDone || f.Health() == Failed || f.queued() {
		return
	}
	f.queuesMu.Lock()
	rings := f.queues
	f.queues = nil
	f.queuesMu.Unlock()
	if len(rings)*rings[0].Cap()*int(unsafe.Sizeof(Event{})) > spareRingBytes {
		return
	}
	select {
	case spareRings <- rings:
	default:
	}
}

// backlog returns the number of events queued but not yet drained, or 0
// once the rings were handed on.
func (f *frontEnd) backlog() int {
	f.queuesMu.Lock()
	defer f.queuesMu.Unlock()
	n := 0
	for _, q := range f.queues {
		n += q.Len()
	}
	return n
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

// signal wakes the consumer if it is parked. Senders call it after every
// push that stores a queue tail. The tail store followed by this load of
// parked, against the consumer's store of parked followed by its recheck
// of the queues in idleWait, is a Dekker pair under Go's sequentially
// consistent atomics: either the producer sees parked and sends, or the
// consumer's recheck sees the new tail. A wake-up is never lost, and the
// publish path pays one atomic load per pushed batch.
func (f *frontEnd) signal() {
	if f.park.parked.Load() {
		select {
		case f.park.wake <- struct{}{}:
		default: // a wake-up is already pending
		}
	}
}

// busy resets the consumer's spin budget after a drain round that made
// progress.
func (f *frontEnd) busy() { f.park.spun = 0 }

// idleWait is the consumer's step after a drain round that made no progress.
// The first idleSpins consecutive idle rounds yield the processor. After
// that the consumer parks: it announces itself in parked, re-checks ready
// (which reports whether any queue or buffer the consumer may drain now
// holds events), and blocks until a producer signals, stop closes, or a
// positive timeout passes. A timeout <= 0 parks with no timer, so only a
// producer or stop ends the wait. The caller re-runs its drain round and
// its stop check after idleWait returns.
func (f *frontEnd) idleWait(stop <-chan struct{}, ready func() bool, timeout time.Duration) {
	p := &f.park
	if p.spun < idleSpins {
		p.spun++
		runtime.Gosched()
		return
	}
	select { // drop a wake-up left over from an earlier park
	case <-p.wake:
	default:
	}
	p.parked.Store(true)
	if ready() {
		p.parked.Store(false)
		return
	}
	var expired <-chan time.Time
	if timeout > 0 {
		if p.timer == nil {
			p.timer = time.NewTimer(timeout)
		} else {
			p.timer.Reset(timeout)
		}
		expired = p.timer.C
	}
	f.prodMet.parks.Inc()
	select {
	case <-p.wake:
	case <-stop:
	case <-expired:
		expired = nil
	}
	p.parked.Store(false)
	if expired != nil && !p.timer.Stop() {
		select { // the timer fired as another case won: drain it
		case <-p.timer.C:
		default:
		}
	}
}

// queued reports whether any queue holds events: the recheck before a
// consumer that drains every queue regardless of gating parks.
func (f *frontEnd) queued() bool {
	for _, q := range f.queues {
		if !q.Empty() {
			return true
		}
	}
	return false
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
// from Sender or BindSender on Monitor or Relay), and the only way to
// publish events. Branch events accumulate in a thread-local buffer and
// are published with a single PushBatch when the buffer fills, when a
// control event (flush/done) must go out, or on an explicit Flush.
// Control events therefore can never overtake buffered branch events,
// and a batch never spans a barrier. A SenderBatch of 1 makes every
// branch event visible as soon as it is sent.
//
// A Sender is owned by exactly one goroutine (it is the thread's queue
// producer endpoint), and must not be used after its sink's Close: Close
// may hand the queues to the next sink in the process. The overflow
// policy applies per buffered event: block spins, drop-newest counts the
// unsent remainder as dropped, block-timeout spins a bounded budget
// before dropping. Control events always block.
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
		s.fe.signal()
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
// buffer) and SendBatch (a caller-owned batch). Every push that lands
// events signals a parked consumer at once, including the partial pushes
// inside the blocking waits: a producer waiting on a full queue must
// never wait on a consumer that was not told the queue has events.
func (s *Sender) publish(rest []Event) {
	switch s.fe.policy {
	case OverflowDropNewest:
		n := s.q.PushBatch(rest)
		s.pushed(n)
		if n < len(rest) {
			s.fe.drop(s.tid, len(rest)-n)
		}
	case OverflowBlockTimeout:
		spins := DefaultSendSpins
		for len(rest) > 0 {
			n := s.q.PushBatch(rest)
			s.pushed(n)
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
			s.pushed(n)
			rest = rest[n:]
			if len(rest) > 0 {
				runtime.Gosched()
			}
		}
	}
}

// pushed signals a parked consumer after a push that stored n > 0 events.
func (s *Sender) pushed(n int) {
	if n > 0 {
		s.fe.signal()
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

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

// DefaultSenderBatch is the Sender's window size: how many branch events
// it writes into its ring before publishing them. 64 events amortize the
// queue's atomic publish well past the point of diminishing returns while
// keeping the monitor's view of a thread at most 64 branch events stale
// — and never stale across a barrier, because control events publish the
// window first.
const DefaultSenderBatch = 64

// frontEnd is the fail-open producer front end that Monitor and Relay
// both embed: one lock-free SPSC queue per program thread, the overflow
// policy, the per-thread drop counters, and the sink's status ledger
// (quarantine counter and health word). Producers reach it only through
// Senders; the embedding sink's back end drains the queues.
type frontEnd struct {
	*status
	queues   []*queue.SPSC[Event] // nil once handed on (recycleRings)
	waits    []producerPark       // per thread, handed on with queues
	queuesMu sync.Mutex           // orders QueueBacklog against the hand-off
	policy   OverflowPolicy
	batch    int             // Sender window size
	drops    []atomic.Uint64 // per producing thread
	prodMet  frontEndMetrics
	park     parker
}

// parker is the consumer's park state (see frontEnd.idleWait). The
// padding keeps the consumer-private timer off the cache line that
// producers read on every publish.
type parker struct {
	parked atomic.Bool   // the consumer is blocked, or about to block, on wake
	wake   chan struct{} // one slot: a pending wake-up
	_      [64]byte
	timer  *time.Timer // consumer-private: the park timer, reused
}

// producerPark is one producer's park state (see Sender.park), the
// mirror of the consumer's parker: a producer that finds its ring full
// blocks on wake until the consumer releases slots (frontEnd.release).
type producerPark struct {
	parked atomic.Bool   // the producer is blocked, or about to block, on wake
	wake   chan struct{} // one slot: a pending wake-up
}

// ringSet is one front end's per-thread rings with their producers'
// park states, kept together so a spare set costs no allocation.
type ringSet struct {
	queues []*queue.SPSC[Event]
	waits  []producerPark
}

// frontEndMetrics are the embedding sink's handles for the counters the
// front end updates (zero value = detached; updates are then single
// nil-check branches).
type frontEndMetrics struct {
	drops       *metrics.Counter
	flushSize   *metrics.Histogram
	parks       *metrics.Counter // the consumer's (idleWait)
	senderParks *metrics.Counter // bw_sender_parks_total (Sender.park)
}

// initFrontEnd builds the per-thread queues and counters over the sink's
// status ledger st, applying the QueueCap (DefaultQueueCap) and
// SenderBatch (DefaultSenderBatch) defaults for non-positive values.
func (f *frontEnd) initFrontEnd(st *status, threads, queueCap int, policy OverflowPolicy, batch int, met frontEndMetrics) error {
	if queueCap <= 0 {
		queueCap = DefaultQueueCap
	}
	if batch <= 0 {
		batch = DefaultSenderBatch
	}
	f.status, f.policy, f.batch, f.prodMet = st, policy, batch, met
	f.park.wake = make(chan struct{}, 1)
	f.drops = make([]atomic.Uint64, threads)
	if set, ok := takeRings(threads, queue.RoundCap(queueCap)); ok {
		f.queues, f.waits = set.queues, set.waits
		return nil
	}
	f.queues = make([]*queue.SPSC[Event], threads)
	f.waits = make([]producerPark, threads)
	for i := range f.queues {
		q, err := queue.NewSPSC[Event](queueCap)
		if err != nil {
			return fmt.Errorf("front-end queue: %w", err)
		}
		f.queues[i] = q
		f.waits[i].wake = make(chan struct{}, 1)
	}
	return nil
}

// spareRingBytes caps the ring set kept for the next sink: at
// DefaultQueueCap it holds up to six threads' queues (160 KiB each).
const spareRingBytes = 1 << 20

// spareRings holds up to two idle ring sets (one queue per thread) for
// the next Monitors or Relays in the process. The second slot serves
// sinks that close together, as campaign workers' monitors do: with one
// slot a 2-worker protected campaign allocated about 15% more bytes.
var spareRings = make(chan ringSet, 2)

// takeRings returns a spare ring set, reset, that has exactly threads
// queues of capacity capacity, and whether there was one. Spares that do
// not fit are dropped on the way, so the ring sets of the latest
// configurations are the ones kept. A wake-up left in a park slot is
// harmless: a producer drops it before it parks.
func takeRings(threads, capacity int) (ringSet, bool) {
	for range cap(spareRings) {
		select {
		case set := <-spareRings:
			if len(set.queues) != threads || set.queues[0].Cap() != capacity {
				continue
			}
			for _, q := range set.queues {
				q.Reset()
			}
			return set, true
		default:
			return ringSet{}, false
		}
	}
	return ringSet{}, false
}

// recycleRings offers the front end's rings as a spare of the process. It
// runs in the embedding sink's Close, after the consumer goroutine has
// exited, never on that goroutine: a producer may still publish after
// its thread's EvDone was consumed (a relay forwarding a stream's
// stragglers does, up to its finish), and only Close is ordered after
// the last publish. allDone reports that the consumer saw every thread's EvDone.
// The rings are kept only when that holds, every queue is empty and the
// consumer did not fail; otherwise they are left to the garbage
// collector, so no event of this run can reach another sink.
func (f *frontEnd) recycleRings(allDone bool) {
	if !allDone || f.Health() == Failed || f.queued() {
		return
	}
	f.queuesMu.Lock()
	set := ringSet{f.queues, f.waits}
	f.queues, f.waits = nil, nil
	f.queuesMu.Unlock()
	if len(set.queues)*set.queues[0].Cap()*int(unsafe.Sizeof(Event{})) > spareRingBytes {
		return
	}
	select {
	case spareRings <- set:
	default:
	}
}

// discardAll releases and quarantines every queued event. The embedding
// sink calls it once its consumer is done with the queues: after a panic,
// without touching the (possibly corrupt) consumer state, whose
// interrupted batch was left unreleased; and in Close, for events a
// thread published after its EvDone, which the consumer never reads.
func (f *frontEnd) discardAll() {
	for tid, q := range f.queues {
		for evs := q.Peek(q.Cap()); len(evs) > 0; evs = q.Peek(q.Cap()) {
			f.quarantine(len(evs))
			f.release(tid, q, len(evs))
		}
	}
}

// release consumes the n oldest events of thread tid's queue q and
// wakes the thread's producer if it is parked on the full ring. Every
// consumer frees ring slots through it: the monitor's drain, the
// relay's (also once its stream broke), and discardAll. The head store
// followed by this load of parked, against the producer's store of
// parked followed by its recheck of the ring in Sender.park, is the
// mirror of signal's Dekker pair: either the consumer sees parked and
// sends, or the producer's recheck sees the room.
func (f *frontEnd) release(tid int, q *queue.SPSC[Event], n int) {
	if n <= 0 {
		return
	}
	q.Release(n)
	if p := &f.waits[tid]; p.parked.Load() {
		select {
		case p.wake <- struct{}{}:
		default: // a wake-up is already pending
		}
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
	if tid < 0 || tid >= len(f.queues) {
		return &Sender{fe: f}
	}
	return &Sender{q: f.queues[tid], wait: &f.waits[tid], fe: f, tid: tid}
}

// signal wakes the consumer if it is parked. Senders call it after every
// push or commit that stores a queue tail. The tail store followed by
// this load of parked, against the consumer's store of parked followed by
// its recheck of the queues in idleWait, is a Dekker pair under Go's
// sequentially consistent atomics: either the producer sees parked and
// sends, or the consumer's recheck sees the new tail. A wake-up is never
// lost, and the publish path pays one atomic load per published batch.
func (f *frontEnd) signal() {
	if f.park.parked.Load() {
		select {
		case f.park.wake <- struct{}{}:
		default: // a wake-up is already pending
		}
	}
}

// idleWait is the consumer's step after a drain round that made no
// progress: it parks at once. It announces itself in parked, re-checks
// ready (which reports whether any queue the consumer may drain now holds
// events), and blocks until a producer signals, stop closes, or a
// positive timeout passes. A timeout <= 0 parks with no timer, so only a
// producer or stop ends the wait. The caller re-runs its drain round and
// its stop check after idleWait returns.
//
// The consumer does not spin on runtime.Gosched first: a yielding
// goroutine goes to the global run queue and is picked up again by its
// own P, so that P never steals the program thread that is runnable on
// another P's queue, and the yields only delay it.
func (f *frontEnd) idleWait(stop <-chan struct{}, ready func() bool, timeout time.Duration) {
	p := &f.park
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
// from Sender on Monitor or Relay), and the only way to
// publish events. Branch events are written straight into a window of
// the thread's ring (queue.SPSC.Reserve) and published with a single
// tail store when the window fills, when a control event (flush/done)
// must go out, or on an explicit Flush. Control events therefore can
// never overtake branch events, and a window never spans a barrier. A
// SenderBatch of 1 makes every branch event visible as soon as it is
// sent.
//
// A Sender is owned by exactly one goroutine (it is the thread's queue
// producer endpoint), and must not be used after its sink's Close: Close
// may hand the queues to the next sink in the process. The overflow
// policy applies when a branch event finds the ring full: block parks
// until the consumer frees slots, drop-newest drops and counts the
// event, block-timeout spins a bounded budget (DefaultSendSpins per
// stall) before dropping it. Control events always block (park).
type Sender struct {
	q    *queue.SPSC[Event] // nil: quarantining handle (out-of-range thread)
	wait *producerPark      // the thread's park slot (nil with q)
	win  []Event            // reserved ring slots; win[:n] are written, unpublished
	n    int
	fe   *frontEnd
	tid  int
	// waited counts the block-timeout spins since a window was last
	// reserved: the budget is per stall, not per event, so once it ran
	// out the events that find the ring still full drop at once.
	waited int
}

// Send writes a branch event into the ring window (publishing the window
// when full) or publishes the window and forwards a control event. A
// Sender built for an out-of-range thread has no queue and quarantines
// everything.
func (s *Sender) Send(ev Event) {
	if (ev.Kind != EvBranch || s.n == len(s.win)) && !s.open(ev) {
		return
	}
	s.win[s.n] = ev
	s.n++
	if s.n == len(s.win) {
		s.Flush()
	}
}

// open is Send's slow path. It forwards a control event, or reserves a
// new window for a branch event under the overflow policy, and reports
// whether the window now has room for ev.
func (s *Sender) open(ev Event) bool {
	if s.q == nil {
		s.fe.quarantine(1)
		return false
	}
	if ev.Kind != EvBranch {
		// Publish the window and drop it: Push writes at the new tail,
		// the slot the window would fill next.
		s.Flush()
		for !s.q.Push(ev) {
			s.park()
		}
		s.fe.signal()
		return false
	}
	for {
		if s.win = s.q.Reserve(s.fe.batch); len(s.win) > 0 {
			s.waited = 0
			return true
		}
		switch {
		case s.fe.policy == OverflowBlock:
			s.park()
		case s.fe.policy == OverflowDropNewest || s.waited >= DefaultSendSpins:
			s.fe.drop(s.tid, 1)
			return false
		default: // OverflowBlockTimeout within its budget
			s.waited++
			runtime.Gosched()
		}
	}
}

// park blocks the producer while its ring is full, until the consumer
// releases slots (frontEnd.release). It announces itself in parked,
// rechecks the ring, signals the consumer and blocks on its wake slot.
// The signal repeats the one the ring's last publish sent, for one load
// per park: park does not rely on every publish path having signalled
// to keep a full ring's consumer awake. park may return with the ring
// still full (a wake-up meant for an earlier park), so callers retry
// their publish and park again.
func (s *Sender) park() {
	p := s.wait
	select { // drop a wake-up left over from an earlier park
	case <-p.wake:
	default:
	}
	p.parked.Store(true)
	if s.q.Len() < s.q.Cap() {
		p.parked.Store(false)
		return
	}
	s.fe.signal()
	s.fe.prodMet.senderParks.Inc()
	<-p.wake
	p.parked.Store(false)
}

// SendBatch publishes evs — a batch of branch events for this sender's
// thread, already assembled upstream (bwperf's ingest driver replays
// decoded frames through it) — through the queue's PushBatch under the
// overflow policy. The window is published first so per-thread order
// holds; evs must contain only branch events (the wire format
// guarantees an events frame never carries control markers). A
// quarantining (nil-queue) Sender counts and discards the whole batch.
// evs is not retained.
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

// Flush publishes the branch events written into the window with one
// tail store, and drops the window: the next branch event reserves a new
// one. Callers only need it to bound staleness during long computation
// gaps — control events publish implicitly.
func (s *Sender) Flush() {
	if s.n > 0 {
		s.fe.prodMet.flushSize.Observe(int64(s.n))
		s.q.Commit(s.n)
		s.fe.signal()
	}
	s.win, s.n = nil, 0
}

// publish pushes rest (SendBatch's caller-owned batch) through the queue
// under the overflow policy. Every push that lands events signals a
// parked consumer at once, including the partial pushes inside the
// blocking waits: a producer waiting on a full queue must never wait on
// a consumer that was not told the queue has events.
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
				s.park()
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

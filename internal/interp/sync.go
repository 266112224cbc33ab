package interp

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// simBarrier is a reusable N-thread barrier that also synchronizes the
// simulated clocks: all participants leave at
// max(arrival clocks) + barrier cost. If a thread exits the parallel
// section (trap or early return) while others wait, the barrier can never
// complete; the barrier detects this and aborts the machine (the run is
// then classified as a hang, as it would be on real hardware after a
// watchdog timeout).
//
// A waiter first spins a bounded number of yielding rounds on released
// before it parks on the condition variable, but only when every
// participant can hold a processor of its own (need <= GOMAXPROCS):
// waking a parked goroutine costs a scheduler hand-off that, on an idle
// virtual CPU, takes far longer than a typical barrier wait. With more
// threads than processors a spinner would only take a processor from the
// thread it is waiting for.
type simBarrier struct {
	m    *machine
	cost int64
	spin bool

	released atomic.Uint64 // gen, stored at each release: what spinners watch

	mu         sync.Mutex
	cond       *sync.Cond
	need       int
	arrived    int
	maxSim     int64
	gen        uint64
	releaseSim int64
}

// barrierSpins bounds a waiter's yielding rounds before it parks. A round
// is one runtime.Gosched, a few hundred nanoseconds when the other
// processors are busy running the peers.
const barrierSpins = 100

func newSimBarrier(m *machine, need int, cost int64) *simBarrier {
	b := &simBarrier{m: m, need: need, cost: cost, spin: need <= runtime.GOMAXPROCS(0)}
	b.cond = sync.NewCond(&b.mu)
	return b
}

// wait blocks t until all threads arrive, then advances t's simulated
// clock to the common release time.
func (b *simBarrier) wait(t *Thread) *Trap {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.m.locks.enterBarrier(t.tid, t.sim)
	gen := b.gen
	b.arrived++
	if t.sim > b.maxSim {
		b.maxSim = t.sim
	}
	if b.arrived == b.need {
		b.releaseSim = b.maxSim + b.cost
		b.arrived = 0
		b.maxSim = 0
		b.gen++
		t.sim = b.releaseSim
		b.m.locks.leaveBarrier(b.releaseSim)
		b.released.Store(b.gen)
		b.cond.Broadcast()
		return nil
	}
	if b.spin && b.spinWait(gen) {
		// releaseSim was written before released; it cannot change again
		// until t itself arrives at the next barrier.
		t.sim = b.releaseSim
		return nil
	}
	for b.gen == gen {
		if b.m.abortedNow() {
			return &Trap{Thread: t.tid, Kind: TrapAborted, Msg: "machine aborted while in barrier"}
		}
		if b.deadlockedLocked() {
			b.m.abort()
			b.cond.Broadcast()
			return &Trap{Thread: t.tid, Kind: TrapDeadlock, Msg: "barrier participant missing"}
		}
		b.cond.Wait()
	}
	t.sim = b.releaseSim
	return nil
}

// spinWait spins on released, without b.mu, until generation gen is
// released or the round budget runs out; it returns with b.mu held again
// and reports whether the release came. A peer that traps or exits is
// noticed after the spin: the caller's wait loop runs the abort and
// deadlock checks under b.mu before it parks, and threadGone broadcasts
// under b.mu, so no wake-up is lost.
func (b *simBarrier) spinWait(gen uint64) bool {
	b.mu.Unlock()
	defer b.mu.Lock()
	for range barrierSpins {
		if b.released.Load() != gen {
			return true
		}
		runtime.Gosched()
	}
	return false
}

// deadlockedLocked reports whether the barrier is unfillable: fewer live
// threads remain than the barrier needs. Caller holds b.mu.
func (b *simBarrier) deadlockedLocked() bool {
	b.m.mu.Lock()
	active := b.m.active
	b.m.mu.Unlock()
	return active < b.need
}

// threadGone wakes waiters so they can re-run the deadlock check after a
// thread exits the parallel section.
func (b *simBarrier) threadGone() {
	b.mu.Lock()
	b.cond.Broadcast()
	b.mu.Unlock()
}

// lockSched grants program locks in simulated-time order, so which thread
// runs a contended critical section first — and therefore every clock
// and every value computed under a lock — is the same on every run,
// whatever the goroutine scheduling.
//
// A pending request (clock, tid) is granted only when no other thread can
// still request a lock with a smaller key: every running thread's clock
// lower bound (published at its last lock operation or barrier release)
// and every other pending request must be larger. Threads in a barrier or
// exited request nothing until the barrier opens. When every thread is
// parked or pending and the smallest request waits on a held lock
// (nested locks), the smallest request on a free lock is granted instead;
// that state is itself schedule-independent. When no request can be
// granted at all, the program is deadlocked.
type lockSched struct {
	mu          sync.Mutex
	cond        *sync.Cond
	acquireCost int64

	threads  []schedThread
	running  int             // threads in schedRunning
	holder   [numLocks]int   // tid holding each lock slot, -1 = free
	freeAt   [numLocks]int64 // simulated release time of each slot
	deadlock bool            // no pending request can ever be granted
}

type schedState uint8

const (
	schedRunning schedState = iota // executing; clock bounds its next request
	schedPending                   // waiting for lock slot want, requested at clock
	schedBarrier                   // in a barrier: requests nothing until it opens
	schedExited                    // left the parallel section
)

type schedThread struct {
	state schedState
	clock int64
	want  uint64
}

func (s *lockSched) init(threads int, acquireCost int64) {
	s.cond = sync.NewCond(&s.mu)
	s.acquireCost = acquireCost
	s.threads = make([]schedThread, threads)
	s.running = threads
	for i := range s.holder {
		s.holder[i] = -1
	}
}

// keyBefore orders lock requests and clock bounds: by clock, then thread ID.
func keyBefore(a int64, aTid int, b int64, bTid int) bool {
	return a < b || (a == b && aTid < bTid)
}

// dispatch grants every request that is now safe to grant. Caller holds
// s.mu.
func (s *lockSched) dispatch() {
	for !s.deadlock {
		first := -1
		for i := range s.threads {
			st := &s.threads[i]
			if (st.state == schedRunning || st.state == schedPending) &&
				(first < 0 || keyBefore(st.clock, i, s.threads[first].clock, first)) {
				first = i
			}
		}
		if first < 0 || s.threads[first].state == schedRunning {
			return
		}
		if s.holder[s.threads[first].want] >= 0 {
			if s.running > 0 {
				return
			}
			first = -1
			for i := range s.threads {
				st := &s.threads[i]
				if st.state == schedPending && s.holder[st.want] < 0 &&
					(first < 0 || keyBefore(st.clock, i, s.threads[first].clock, first)) {
					first = i
				}
			}
			if first < 0 {
				s.deadlock = true
				s.cond.Broadcast()
				return
			}
		}
		st := &s.threads[first]
		if s.freeAt[st.want] > st.clock {
			st.clock = s.freeAt[st.want]
		}
		st.clock += s.acquireCost
		st.state = schedRunning
		s.running++
		s.holder[st.want] = first
		s.cond.Broadcast()
	}
}

// setState moves a thread between states and re-runs dispatch. Caller
// holds s.mu.
func (s *lockSched) setState(tid int, state schedState, clock int64) {
	st := &s.threads[tid]
	if st.state == schedRunning {
		s.running--
	}
	if state == schedRunning {
		s.running++
	}
	st.state, st.clock = state, clock
	s.dispatch()
}

// enterBarrier parks a thread arriving at the barrier.
func (s *lockSched) enterBarrier(tid int, clock int64) {
	s.mu.Lock()
	s.setState(tid, schedBarrier, clock)
	s.mu.Unlock()
}

// leaveBarrier resumes every thread parked in the barrier at its release
// time.
func (s *lockSched) leaveBarrier(releaseSim int64) {
	s.mu.Lock()
	for i := range s.threads {
		if s.threads[i].state == schedBarrier {
			s.threads[i] = schedThread{state: schedRunning, clock: releaseSim}
			s.running++
		}
	}
	s.mu.Unlock()
}

// exit removes a thread that left the parallel section.
func (s *lockSched) exit(tid int) {
	s.mu.Lock()
	s.setState(tid, schedExited, 0)
	s.mu.Unlock()
}

// wake rouses pending requests so they notice the machine aborted.
func (s *lockSched) wake() {
	s.mu.Lock()
	s.cond.Broadcast()
	s.mu.Unlock()
}

// acquire takes program lock id, modeling serialization in simulated time:
// the acquiring thread's clock is pushed past the previous holder's
// release, and contended locks go to requesters in (clock, tid) order.
func (m *machine) acquire(t *Thread, id int64) *Trap {
	slot := uint64(id) % numLocks
	if t.tid < 0 {
		// setup() is single-threaded: nothing to order or wait for.
		for _, h := range t.held {
			if h == slot {
				return &Trap{Thread: t.tid, Kind: TrapDeadlock, Msg: "relock of held lock in setup()"}
			}
		}
		t.sim += m.cost.LockAcquire
		t.held = append(t.held, slot)
		return nil
	}
	s := &m.locks
	s.mu.Lock()
	st := &s.threads[t.tid]
	st.want = slot
	s.setState(t.tid, schedPending, t.sim)
	for st.state == schedPending {
		if m.abortedNow() {
			s.mu.Unlock()
			return &Trap{Thread: t.tid, Kind: TrapAborted, Msg: "machine aborted while locking"}
		}
		if s.deadlock {
			s.mu.Unlock()
			trap := &Trap{Thread: t.tid, Kind: TrapDeadlock, Msg: "lock can never be granted"}
			m.abort()
			m.barrier.threadGone()
			return trap
		}
		s.cond.Wait()
	}
	t.sim = st.clock
	s.mu.Unlock()
	t.held = append(t.held, slot)
	return nil
}

// release drops program lock id and publishes the holder's clock.
func (m *machine) release(t *Thread, id int64) *Trap {
	slot := uint64(id) % numLocks
	for i := len(t.held) - 1; i >= 0; i-- {
		if t.held[i] == slot {
			t.held = append(t.held[:i], t.held[i+1:]...)
			m.unlockSlot(t, slot)
			return nil
		}
	}
	return &Trap{Thread: t.tid, Kind: TrapInternal, Msg: "unlock of lock not held"}
}

// unlockSlot frees a lock slot t holds at t's current clock.
func (m *machine) unlockSlot(t *Thread, slot uint64) {
	if t.tid < 0 {
		return
	}
	s := &m.locks
	s.mu.Lock()
	s.holder[slot] = -1
	s.freeAt[slot] = t.sim
	s.setState(t.tid, schedRunning, t.sim)
	s.mu.Unlock()
}

// releaseAll drops any locks a thread still holds when it leaves the
// parallel section (possible under injected faults that skip an unlock);
// without this the whole campaign run would wedge on a poisoned lock.
func (m *machine) releaseAll(t *Thread) {
	for i := len(t.held) - 1; i >= 0; i-- {
		m.unlockSlot(t, t.held[i])
	}
	t.held = t.held[:0]
}

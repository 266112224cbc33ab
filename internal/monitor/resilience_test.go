package monitor

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// waitUntil polls cond until it holds or the deadline passes.
func waitUntil(t *testing.T, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(100 * time.Microsecond)
	}
}

func TestSendOutOfRangeThreadQuarantined(t *testing.T) {
	m, err := New(Config{NumThreads: 2, Plans: testPlans()})
	if err != nil {
		t.Fatal(err)
	}
	in := newFeed(m, 2)
	m.Start()
	in.Send(branchEv(-1, 1, 0, 5, true))
	in.Send(branchEv(99, 1, 0, 5, true))
	in.Send(Event{Kind: EvDone, Thread: -7}) // malformed control, same path
	in.Send(Event{Kind: EvDone, Thread: 0})
	in.Send(Event{Kind: EvDone, Thread: 1})
	m.Close()
	if st := m.Stats(); st.Quarantined != 3 {
		t.Errorf("Quarantined = %d, want 3", st.Quarantined)
	}
	if got := m.Health(); got != Degraded {
		t.Errorf("Health = %v, want Degraded", got)
	}
	if m.Detected() {
		t.Fatalf("quarantined events produced a violation: %v", m.Violations())
	}
}

func TestOverflowDropNewestCountsDrops(t *testing.T) {
	// Unstarted monitor: queues fill, so the policy decides. 10 sends into a
	// 4-slot queue must drop exactly 6 and count them against thread 0.
	m, err := New(Config{NumThreads: 2, Plans: testPlans(), SenderBatch: 1, QueueCap: 4,
		Overflow: OverflowDropNewest})
	if err != nil {
		t.Fatal(err)
	}
	in := newFeed(m, 2)
	for i := 0; i < 10; i++ {
		in.Send(branchEv(0, 1, uint64(i), 5, true))
	}
	// Thread 1 agrees on the instances that survived (keys 0..3).
	for i := 0; i < 4; i++ {
		in.Send(branchEv(1, 1, uint64(i), 5, true))
	}
	if got := m.Drops(); got[0] != 6 || got[1] != 0 {
		t.Errorf("Drops = %v, want [6 0]", got)
	}
	if got := m.Health(); got != Degraded {
		t.Errorf("Health = %v, want Degraded", got)
	}
	m.Close() // unstarted close drains synchronously and checks pending
	st := m.Stats()
	if st.Events != 8 || st.Dropped != 6 {
		t.Errorf("Events=%d Dropped=%d, want 8 and 6", st.Events, st.Dropped)
	}
	if m.Detected() {
		t.Fatalf("dropped events produced a violation: %v", m.Violations())
	}
}

func TestOverflowBlockTimeoutDrops(t *testing.T) {
	m, err := New(Config{NumThreads: 1, Plans: testPlans(), SenderBatch: 1, QueueCap: 4,
		Overflow: OverflowBlockTimeout})
	if err != nil {
		t.Fatal(err)
	}
	in := newFeed(m, 1)
	for i := 0; i < 10; i++ {
		in.Send(branchEv(0, 1, uint64(i), 5, true)) // nobody drains: spins expire
	}
	if got := m.Drops(); got[0] != 6 {
		t.Errorf("Drops = %v, want [6]", got)
	}
	m.Close()
	if st := m.Stats(); st.Dropped != 6 || st.Events != 4 {
		t.Errorf("Dropped=%d Events=%d, want 6 and 4", st.Dropped, st.Events)
	}
}

// TestOverflowBlockTimeoutBudgetPerStall: on a queue nobody drains, the
// block-timeout budget is spent once per stall, not once per event, so a
// producer facing a wedged consumer drops at once after the first wait
// instead of spinning DefaultSendSpins rounds for every event.
func TestOverflowBlockTimeoutBudgetPerStall(t *testing.T) {
	m, err := New(Config{NumThreads: 1, Plans: testPlans(), SenderBatch: 1, QueueCap: 4,
		Overflow: OverflowBlockTimeout})
	if err != nil {
		t.Fatal(err)
	}
	s := m.Sender(0)
	const n = 20_000
	start := time.Now()
	for i := 0; i < n; i++ {
		s.Send(branchEv(0, 1, uint64(i), 5, true))
	}
	took := time.Since(start)
	if got := m.Drops(); got[0] != n-4 {
		t.Errorf("Drops = %v, want [%d]", got, n-4)
	}
	if took > 2*time.Second {
		t.Errorf("%d sends into a wedged queue took %v, want well under 2s", n, took)
	}
	m.Close()
}

func TestControlEventsNeverDropped(t *testing.T) {
	// Even under a drop policy with a full, gated queue, EvFlush must block
	// until there is room: dropping a flush could mix barrier generations.
	m, err := New(Config{NumThreads: 2, Plans: testPlans(), SenderBatch: 1, QueueCap: 4,
		Overflow: OverflowDropNewest})
	if err != nil {
		t.Fatal(err)
	}
	in := newFeed(m, 2)
	m.Start()
	defer m.Close()

	// Gate thread 0 behind the open generation.
	in.Send(Event{Kind: EvFlush, Thread: 0})
	waitUntil(t, 5*time.Second, "flush drained", func() bool { return m.QueueBacklog() == 0 })

	// Fill the gated queue; two extra branch events drop.
	for i := 0; i < 6; i++ {
		in.Send(branchEv(0, 1, uint64(i), 5, true))
	}
	if got := m.Drops(); got[0] != 2 {
		t.Fatalf("Drops = %v, want [2]", got)
	}

	flushed := make(chan struct{})
	go func() {
		in.Send(Event{Kind: EvFlush, Thread: 0}) // queue full: must block, not drop
		close(flushed)
	}()
	select {
	case <-flushed:
		t.Fatal("control event returned while the gated queue was full (dropped?)")
	case <-time.After(20 * time.Millisecond):
	}

	// Thread 1 flushes: the generation closes, thread 0 ungates and drains,
	// and the blocked control Send completes.
	in.Send(Event{Kind: EvFlush, Thread: 1})
	select {
	case <-flushed:
	case <-time.After(5 * time.Second):
		t.Fatal("control event still blocked after the generation closed")
	}
	in.Send(Event{Kind: EvDone, Thread: 0})
	in.Send(Event{Kind: EvDone, Thread: 1})
	m.Close()
	if m.Detected() {
		t.Fatalf("false positive: %v", m.Violations())
	}
}

func TestPostDoneStragglerQuarantined(t *testing.T) {
	m, err := New(Config{NumThreads: 2, Plans: testPlans()})
	if err != nil {
		t.Fatal(err)
	}
	in := newFeed(m, 2)
	m.Start()
	in.Send(Event{Kind: EvDone, Thread: 0})
	in.Send(branchEv(0, 1, 0, 5, true)) // straggler after done
	in.Send(Event{Kind: EvDone, Thread: 0})
	in.Send(Event{Kind: EvDone, Thread: 1})
	m.Close()
	st := m.Stats()
	if st.Quarantined != 2 { // straggler + duplicate done
		t.Errorf("Quarantined = %d, want 2", st.Quarantined)
	}
	if st.Events != 0 {
		t.Errorf("Events = %d, want 0", st.Events)
	}
	if m.Detected() {
		t.Fatalf("false positive: %v", m.Violations())
	}
}

func TestUnknownEventKindQuarantined(t *testing.T) {
	m, err := New(Config{NumThreads: 1, Plans: testPlans()})
	if err != nil {
		t.Fatal(err)
	}
	in := newFeed(m, 1)
	m.Start()
	in.Send(Event{Kind: EventKind(7), Thread: 0})
	in.Send(Event{Kind: EvDone, Thread: 0})
	m.Close()
	if st := m.Stats(); st.Quarantined != 1 {
		t.Errorf("Quarantined = %d, want 1", st.Quarantined)
	}
}

func TestCorruptedControlEventQuarantined(t *testing.T) {
	// A flush whose payload thread ID was corrupted inside the queue no
	// longer matches the slot it was popped from; it must be quarantined,
	// not allowed to advance another thread's flush count.
	var corrupted atomic.Bool
	m, err := New(Config{NumThreads: 2, Plans: testPlans(), EventTap: func(ev *Event) {
		if ev.Kind == EvFlush && ev.Thread == 0 && !corrupted.Swap(true) {
			ev.Thread = 1
		}
	}})
	if err != nil {
		t.Fatal(err)
	}
	in := newFeed(m, 2)
	m.Start()
	in.Send(Event{Kind: EvFlush, Thread: 0})
	in.Send(Event{Kind: EvDone, Thread: 0})
	in.Send(Event{Kind: EvDone, Thread: 1})
	m.Close()
	st := m.Stats()
	if st.Quarantined != 1 {
		t.Errorf("Quarantined = %d, want 1", st.Quarantined)
	}
	if st.Flushes != 0 {
		t.Errorf("Flushes = %d, want 0 (corrupted flush must not count)", st.Flushes)
	}
	if m.Detected() {
		t.Fatalf("false positive: %v", m.Violations())
	}
}

func TestMonitorPanicFailsOpen(t *testing.T) {
	// A panic inside the monitor goroutine must degrade to Failed and keep
	// draining so producers blocked on full queues are released.
	m, err := New(Config{NumThreads: 2, Plans: testPlans(), QueueCap: 8,
		EventTap: func(ev *Event) {
			if ev.Kind == EvBranch {
				panic("injected monitor fault")
			}
		}})
	if err != nil {
		t.Fatal(err)
	}
	in := newFeed(m, 2)
	m.Start()
	// Far more events than the queue holds, under the blocking policy: if
	// the failsafe drain were missing, this loop would wedge forever.
	for i := 0; i < 100; i++ {
		in.Send(branchEv(0, 1, uint64(i), 5, true))
	}
	in.Send(Event{Kind: EvDone, Thread: 0})
	in.Send(Event{Kind: EvDone, Thread: 1})
	m.Close()
	if got := m.Health(); got != Failed {
		t.Errorf("Health = %v, want Failed", got)
	}
	if st := m.Stats(); st.Panics != 1 {
		t.Errorf("Panics = %d, want 1", st.Panics)
	}
	if m.Detected() {
		t.Fatalf("failed monitor reported a violation: %v", m.Violations())
	}
}

func TestWatchdogForceClosesGeneration(t *testing.T) {
	var clock atomic.Int64 // virtual nanoseconds
	m, err := New(Config{NumThreads: 2, Plans: testPlans(), SenderBatch: 1,
		StallDeadline: time.Second,
		Now:           func() time.Time { return time.Unix(0, clock.Load()) }})
	if err != nil {
		t.Fatal(err)
	}
	in := newFeed(m, 2)
	m.Start()

	// Thread 0 reports and flushes; thread 1 hangs without a flush. The
	// generation can never close on its own.
	in.Send(branchEv(0, 1, 0, 5, true))
	in.Send(Event{Kind: EvFlush, Thread: 0})
	waitUntil(t, 5*time.Second, "events drained", func() bool { return m.QueueBacklog() == 0 })

	// Advance virtual time until the watchdog force-closes the generation.
	waitUntil(t, 5*time.Second, "watchdog fire", func() bool {
		clock.Add(int64(time.Second))
		return m.Stats().Watchdog >= 1
	})
	if got := m.Health(); got != Degraded {
		t.Errorf("Health = %v, want Degraded", got)
	}

	// Thread 0 is ungated: its next-generation event is processed normally.
	in.Send(branchEv(0, 1, 100, 5, true))
	waitUntil(t, 5*time.Second, "post-close event accepted", func() bool {
		return m.Stats().Events == 2
	})

	// Thread 1 finally wakes up: its pre-barrier leftover belongs to the
	// force-closed generation and must be quarantined, not mixed in.
	in.Send(branchEv(1, 1, 0, 9, false))
	waitUntil(t, 5*time.Second, "stale event quarantined", func() bool {
		return m.Stats().Quarantined >= 1
	})

	in.Send(Event{Kind: EvDone, Thread: 0})
	in.Send(Event{Kind: EvDone, Thread: 1})
	m.Close()
	st := m.Stats()
	if st.Watchdog != 1 {
		t.Errorf("Watchdog = %d, want 1", st.Watchdog)
	}
	if st.Flushes == 0 {
		t.Error("forced close did not count as a flush")
	}
	if m.Detected() {
		t.Fatalf("false positive across a force-closed generation: %v", m.Violations())
	}
}

func TestWatchdogHungThreadBoundedNoLivelock(t *testing.T) {
	// One thread produces 20 generations against a tiny queue while the
	// other thread is hung. Without the watchdog the producer would block
	// forever on its gated, full queue. Virtual time is advanced by a
	// ticker goroutine so the test is fast and deterministic in outcome.
	var clock atomic.Int64
	m, err := New(Config{NumThreads: 2, Plans: testPlans(), QueueCap: 8,
		StallDeadline: 10 * time.Millisecond,
		Now:           func() time.Time { return time.Unix(0, clock.Load()) }})
	if err != nil {
		t.Fatal(err)
	}
	in := newFeed(m, 2)
	m.Start()

	stopTick := make(chan struct{})
	var tickWG sync.WaitGroup
	tickWG.Add(1)
	go func() {
		defer tickWG.Done()
		for {
			select {
			case <-stopTick:
				return
			default:
				clock.Add(int64(50 * time.Millisecond))
				time.Sleep(200 * time.Microsecond)
			}
		}
	}()

	finished := make(chan struct{})
	go func() {
		defer close(finished)
		for gen := 0; gen < 20; gen++ {
			for b := 0; b < 6; b++ {
				in.Send(branchEv(0, 1, uint64(gen*100+b), 5, true))
			}
			in.Send(Event{Kind: EvFlush, Thread: 0})
		}
		in.Send(Event{Kind: EvDone, Thread: 0})
	}()
	select {
	case <-finished:
	case <-time.After(30 * time.Second):
		t.Fatal("producer livelocked behind the hung thread")
	}
	in.Send(Event{Kind: EvDone, Thread: 1})
	m.Close()
	close(stopTick)
	tickWG.Wait()

	st := m.Stats()
	if st.Watchdog == 0 {
		t.Error("watchdog never fired")
	}
	if got := m.Health(); got != Degraded {
		t.Errorf("Health = %v, want Degraded", got)
	}
	if m.QueueBacklog() != 0 {
		t.Errorf("backlog = %d after Close, want 0", m.QueueBacklog())
	}
	if m.Detected() {
		t.Fatalf("false positive: %v", m.Violations())
	}
}

func TestDrainAllForcedCloseDetectsDespiteMissingFlush(t *testing.T) {
	// A thread that crashes before its barrier leaves the generation open
	// and a backlog gated behind it. drainAll must force the generation
	// closed — and the subset check must still catch the divergence the
	// crashed thread reported before dying.
	m, err := New(Config{NumThreads: 2, Plans: testPlans(), SenderBatch: 1})
	if err != nil {
		t.Fatal(err)
	}
	in := newFeed(m, 2)
	in.Send(branchEv(0, 1, 0, 5, true))
	in.Send(Event{Kind: EvFlush, Thread: 0})
	in.Send(branchEv(0, 1, 100, 5, true)) // next generation, gated
	in.Send(branchEv(1, 1, 0, 5, false))  // divergent outcome, then crash: no flush
	m.Close()                             // unstarted: synchronous drainAll + final check
	if !m.Detected() {
		t.Fatal("divergence lost when the generation was force-closed")
	}
	st := m.Stats()
	if st.Events != 3 {
		t.Errorf("Events = %d, want 3", st.Events)
	}
	if st.Flushes != 1 {
		t.Errorf("Flushes = %d, want 1 forced close", st.Flushes)
	}
}

func TestMixedDoneLiveGenerationFlush(t *testing.T) {
	// Thread 2 finishes before the first barrier; the two live threads'
	// flushes alone must close both generations.
	m, err := New(Config{NumThreads: 3, Plans: testPlans()})
	if err != nil {
		t.Fatal(err)
	}
	in := newFeed(m, 3)
	m.Start()
	in.Send(branchEv(2, 1, 0, 5, true))
	in.Send(Event{Kind: EvDone, Thread: 2})
	for _, tid := range []int32{0, 1} {
		in.Send(branchEv(tid, 1, 0, 5, true))
		in.Send(Event{Kind: EvFlush, Thread: tid})
		in.Send(branchEv(tid, 1, 50, 5, true))
		in.Send(Event{Kind: EvFlush, Thread: tid})
		in.Send(Event{Kind: EvDone, Thread: tid})
	}
	m.Close()
	st := m.Stats()
	if st.Flushes != 2 {
		t.Errorf("Flushes = %d, want 2 (done thread excluded from the barrier set)", st.Flushes)
	}
	if st.Events != 5 || st.Instances != 2 {
		t.Errorf("Events=%d Instances=%d, want 5 and 2", st.Events, st.Instances)
	}
	if m.Detected() {
		t.Fatalf("false positive: %v", m.Violations())
	}
	if got := m.Health(); got != Healthy {
		t.Errorf("Health = %v, want Healthy", got)
	}
}

func TestStatsConcurrentReaders(t *testing.T) {
	// Stats, Health, Drops, and QueueBacklog are documented safe during a
	// run; under `go test -race` this catches any non-atomic counter.
	const nthreads = 4
	m, err := New(Config{NumThreads: nthreads, Plans: testPlans(), QueueCap: 64,
		Overflow: OverflowDropNewest})
	if err != nil {
		t.Fatal(err)
	}
	in := newFeed(m, nthreads)
	m.Start()
	stop := make(chan struct{})
	var readers sync.WaitGroup
	for i := 0; i < 3; i++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
					_ = m.Stats()
					_ = m.Health()
					_ = m.Drops()
					_ = m.QueueBacklog()
				}
			}
		}()
	}
	var producers sync.WaitGroup
	for tid := int32(0); tid < nthreads; tid++ {
		producers.Add(1)
		go func(tid int32) {
			defer producers.Done()
			for i := uint64(0); i < 500; i++ {
				in.Send(branchEv(tid, 1, i, 5, true))
			}
			in.Send(Event{Kind: EvDone, Thread: tid})
		}(tid)
	}
	producers.Wait()
	m.Close()
	close(stop)
	readers.Wait()
	st := m.Stats()
	if st.Events+st.Dropped != nthreads*500 {
		t.Errorf("Events+Dropped = %d, want %d", st.Events+st.Dropped, nthreads*500)
	}
	if m.Detected() {
		t.Fatalf("false positive: %v", m.Violations())
	}
}

// TestBranchIDMismatchSameInEitherOrder: a report whose BranchID was
// corrupted is handled the same whether it is the first report of its
// Key1 the drain sees or arrives after the Key1→plan binding exists — so
// event-path campaign tallies do not depend on drain scheduling. An
// unknown ID is quarantined; an unchecked branch's ID is ignored.
func TestBranchIDMismatchSameInEitherOrder(t *testing.T) {
	for _, tc := range []struct {
		name      string
		badID     int32
		wantQuar  uint64
		wantCheck uint64
	}{
		{"unknown", 99, 1, 0},
		{"unchecked", 3, 0, 0},
	} {
		for _, badFirst := range []bool{true, false} {
			// Unstarted monitor: Close drains thread 0's queue before
			// thread 1's, so badFirst decides which report binds Key1.
			m, err := New(Config{NumThreads: 2, Plans: testPlans(), SenderBatch: 1})
			if err != nil {
				t.Fatal(err)
			}
			good, bad := branchEv(0, 1, 1, 5, true), branchEv(1, 1, 1, 5, true)
			if badFirst {
				good.Thread, bad.Thread = 1, 0
			}
			bad.BranchID = tc.badID
			in := newFeed(m, 2)
			in.Send(good)
			in.Send(bad)
			m.Close()
			st := m.Stats()
			if st.Quarantined != tc.wantQuar || st.Instances != tc.wantCheck {
				t.Errorf("%s, bad report first=%t: Quarantined=%d Instances=%d, want %d and %d",
					tc.name, badFirst, st.Quarantined, st.Instances, tc.wantQuar, tc.wantCheck)
			}
			if m.Detected() {
				t.Errorf("%s, bad report first=%t: false positive %v", tc.name, badFirst, m.Violations())
			}
		}
	}
}

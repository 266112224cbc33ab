package monitor

import (
	"runtime"
	"testing"
)

// TestSendBatchFlushesBufferedFirst: per-thread order must hold across
// the two producer paths — events buffered via Send are published before
// a SendBatch batch, or the monitor would see the batch out of order.
func TestSendBatchFlushesBufferedFirst(t *testing.T) {
	var order []uint64
	m, err := New(Config{
		NumThreads: 1, Plans: testPlans(), SenderBatch: 8,
		EventTap: func(ev *Event) {
			if ev.Kind == EvBranch {
				order = append(order, ev.Key2)
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	s := m.Sender(0)
	for k := uint64(0); k < 3; k++ { // buffered: below the batch size
		s.Send(branchEv(0, 1, k, 5, true))
	}
	batch := []Event{branchEv(0, 1, 10, 5, true), branchEv(0, 1, 11, 5, true)}
	s.SendBatch(batch)
	s.Send(Event{Kind: EvDone, Thread: 0})
	m.Close() // unstarted: drains inline, so order is complete here
	want := []uint64{0, 1, 2, 10, 11}
	if len(order) != len(want) {
		t.Fatalf("processed keys %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("processed keys %v, want %v (buffered events overtaken)", order, want)
		}
	}
}

// TestSendBatchQuarantines: a quarantining (out-of-range) sender counts
// and discards the whole batch, and an empty batch is a no-op on both
// kinds of sender.
func TestSendBatchQuarantines(t *testing.T) {
	m, err := New(Config{NumThreads: 1, Plans: testPlans()})
	if err != nil {
		t.Fatal(err)
	}
	q := m.Sender(5)
	q.SendBatch([]Event{branchEv(0, 1, 1, 5, true), branchEv(0, 1, 2, 5, true)})
	q.SendBatch(nil)
	if got := m.Stats().Quarantined; got != 2 {
		t.Errorf("Quarantined = %d, want 2", got)
	}
	if m.Health() != Degraded {
		t.Errorf("Health = %s, want degraded", m.Health())
	}
	s := m.Sender(0)
	s.SendBatch(nil)
	if got := m.QueueBacklog(); got != 0 {
		t.Errorf("backlog = %d after empty SendBatch, want 0", got)
	}
	s.Send(Event{Kind: EvDone, Thread: 0})
	m.Close()
}

// TestSendBatchDropNewestCountsDrops: the batch obeys the sender's
// overflow policy — into a full queue, drop-newest counts the unsent
// remainder instead of blocking.
func TestSendBatchDropNewestCountsDrops(t *testing.T) {
	m, err := New(Config{
		NumThreads: 1, Plans: testPlans(), QueueCap: 4,
		Overflow: OverflowDropNewest,
	})
	if err != nil {
		t.Fatal(err)
	}
	s := m.Sender(0)
	batch := make([]Event, 8)
	for k := range batch {
		batch[k] = branchEv(0, 1, uint64(k), 5, true)
	}
	s.SendBatch(batch) // queue holds 4; the rest must be counted, not spun on
	if got := m.Drops()[0]; got != 4 {
		t.Errorf("drops = %d, want 4", got)
	}
	if m.Health() != Degraded {
		t.Errorf("Health = %s, want degraded", m.Health())
	}
	m.Close()
}

// TestMonitorDrainZeroAlloc is the CI alloc ceiling for the monitor's
// consumer side: once the instance table, report arena, and pending
// buffers are warm, a full generation — SendBatch publish, drain,
// checking, barrier close — must not allocate anywhere in the process
// (AllocsPerRun counts all goroutines, so the monitor goroutine's drain
// and check path is inside the measurement).
func TestMonitorDrainZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; alloc gate runs in the non-race jobs")
	}
	const threads = 2
	m, err := New(Config{NumThreads: threads, Plans: testPlans()})
	if err != nil {
		t.Fatal(err)
	}
	m.Start()
	senders := make([]*Sender, threads)
	batches := make([][]Event, threads)
	for tid := range senders {
		senders[tid] = m.Sender(tid)
		batch := make([]Event, 16)
		for k := range batch {
			batch[k] = branchEv(int32(tid), 1, uint64(k), 5, true)
		}
		batches[tid] = batch
	}
	generation := func() {
		start := m.Stats().Flushes
		for tid, s := range senders {
			s.SendBatch(batches[tid])
			s.Send(Event{Kind: EvFlush, Thread: int32(tid)})
		}
		for m.Stats().Flushes == start {
			runtime.Gosched()
		}
	}
	for i := 0; i < 3; i++ {
		generation() // warm the table, report arena, and pending buffers
	}
	avg := testing.AllocsPerRun(50, generation)
	for tid := range senders {
		senders[tid].Send(Event{Kind: EvDone, Thread: int32(tid)})
	}
	m.Close()
	if m.Detected() {
		t.Fatalf("identical streams produced violations: %v", m.Violations())
	}
	if avg != 0 {
		t.Errorf("steady-state generation allocates %.1f times, want 0", avg)
	}
}

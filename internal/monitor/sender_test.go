package monitor

import (
	"reflect"
	"testing"
)

// TestSenderBarrierBoundary proves a Sender batch never crosses a
// barrier: the pre-barrier events use one signature and the post-barrier
// events reuse the same keys with a different signature, so if the
// buffered pre-barrier events were published after the flush they would
// land in the next generation and collide with the post-barrier events
// of the other thread — a false positive. Correct flush-before-control
// ordering keeps both generations internally consistent.
func TestSenderBarrierBoundary(t *testing.T) {
	m, err := New(Config{NumThreads: 2, Plans: testPlans(), SenderBatch: 8})
	if err != nil {
		t.Fatal(err)
	}
	m.Start()
	for tid := int32(0); tid < 2; tid++ {
		s := m.Sender(int(tid))
		for k := uint64(0); k < 3; k++ { // stays below the batch size: still buffered
			s.Send(branchEv(tid, 1, k, 5, true))
		}
		s.Send(Event{Kind: EvFlush, Thread: tid})
		for k := uint64(0); k < 3; k++ { // same keys, different signature
			s.Send(branchEv(tid, 1, k, 6, false))
		}
		s.Send(Event{Kind: EvDone, Thread: tid})
	}
	m.Close()
	if m.Detected() {
		t.Fatalf("batch leaked across the barrier: %v", m.Violations())
	}
	st := m.Stats()
	if st.Flushes != 1 {
		t.Errorf("Flushes = %d, want 1", st.Flushes)
	}
	if st.Events != 12 {
		t.Errorf("Events = %d, want 12", st.Events)
	}
}

// TestSenderExplicitFlush: buffered branch events are invisible to the
// monitor until the batch fills, a control event goes out, or Flush is
// called explicitly.
func TestSenderExplicitFlush(t *testing.T) {
	m, err := New(Config{NumThreads: 1, Plans: testPlans(), SenderBatch: 64})
	if err != nil {
		t.Fatal(err)
	}
	s := m.Sender(0)
	for k := uint64(0); k < 3; k++ {
		s.Send(branchEv(0, 1, k, 5, true))
	}
	if got := m.QueueBacklog(); got != 0 {
		t.Fatalf("backlog = %d before Flush, want 0 (events still buffered)", got)
	}
	s.Flush()
	if got := m.QueueBacklog(); got != 3 {
		t.Fatalf("backlog = %d after Flush, want 3", got)
	}
	s.Send(Event{Kind: EvDone, Thread: 0})
	m.Close()
	if m.Detected() {
		t.Fatalf("unexpected violation: %v", m.Violations())
	}
}

// TestSenderBatchFillPublishes: the batch publishes itself when full,
// without any control event.
func TestSenderBatchFillPublishes(t *testing.T) {
	m, err := New(Config{NumThreads: 1, Plans: testPlans(), SenderBatch: 4})
	if err != nil {
		t.Fatal(err)
	}
	s := m.Sender(0)
	for k := uint64(0); k < 4; k++ {
		s.Send(branchEv(0, 1, k, 5, true))
	}
	if got := m.QueueBacklog(); got != 4 {
		t.Fatalf("backlog = %d after filling the batch, want 4", got)
	}
	s.Send(Event{Kind: EvDone, Thread: 0})
	m.Close()
}

// TestSenderControlMidWindow: a control event sent while the Sender's
// ring window is part-filled publishes the window, lands right after it,
// and the branch events after it go into a fresh window: the ring holds
// exactly the order the thread sent, including across the ring's wrap
// point. A Sender that kept writing into its old window after the
// control event's Push would overwrite the control event.
func TestSenderControlMidWindow(t *testing.T) {
	m, err := New(Config{NumThreads: 1, Plans: testPlans(), QueueCap: 16, SenderBatch: 8})
	if err != nil {
		t.Fatal(err)
	}
	s := m.Sender(0)
	q := m.queues[0]
	var want []Event
	send := func(ev Event) {
		s.Send(ev)
		want = append(want, ev)
	}
	got := make([]Event, q.Cap())
	for round := uint64(0); round < 5; round++ { // 7 events a round: the ring of 16 wraps
		for k := uint64(0); k < 3; k++ {
			send(branchEv(0, 1, 10*round+k, 5, true))
		}
		send(Event{Kind: EvFlush, Thread: 0})
		for k := uint64(3); k < 6; k++ {
			send(branchEv(0, 1, 10*round+k, 5, true))
		}
		s.Flush()
		n := q.PopBatch(got)
		if !reflect.DeepEqual(got[:n], want) {
			t.Fatalf("round %d: ring holds\n %v\nwant\n %v", round, got[:n], want)
		}
		want = want[:0]
	}
}

// frontEndCase is one sink built over the shared producer front end.
type frontEndCase struct {
	name string
	sink Sink
	fe   *frontEnd
}

// frontEndCases builds the two sinks that embed the producer front end
// — the flat monitor and a relay — from one configuration, unstarted so
// the queues fill.
func frontEndCases(t *testing.T, cfg Config) []frontEndCase {
	t.Helper()
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewRelay(RelayConfig{
		NumThreads: cfg.NumThreads, QueueCap: cfg.QueueCap, Overflow: cfg.Overflow,
		SenderBatch: cfg.SenderBatch, Stream: newCollectStream(),
	})
	if err != nil {
		t.Fatal(err)
	}
	return []frontEndCase{
		{"flat", m, &m.frontEnd},
		{"relay", r, &r.frontEnd},
	}
}

// TestSenderOutOfRangeQuarantines: on every sink, a Sender for a bogus
// thread ID counts and discards every event (single, control, batch) and
// degrades health; once the sink has Failed, further quarantines never
// lift it back to Degraded.
func TestSenderOutOfRangeQuarantines(t *testing.T) {
	for _, c := range frontEndCases(t, Config{NumThreads: 2, Plans: testPlans()}) {
		t.Run(c.name, func(t *testing.T) {
			defer c.sink.Close()
			for _, tid := range []int{-1, 2, 99} {
				s := c.sink.Sender(tid)
				s.Send(branchEv(0, 1, 1, 5, true))
				s.Send(Event{Kind: EvFlush, Thread: int32(tid)})
				s.SendBatch([]Event{branchEv(0, 1, 2, 5, true), branchEv(0, 1, 3, 5, true)})
				s.Flush()
			}
			if got := c.fe.quarantined.Load(); got != 12 {
				t.Errorf("quarantined = %d, want 12", got)
			}
			if got := c.sink.Health(); got != Degraded {
				t.Errorf("Health = %s, want degraded", got)
			}
			c.fe.health.Store(int32(Failed)) // as a recovered panic does
			c.sink.Sender(-1).Send(branchEv(0, 1, 4, 5, true))
			if got := c.sink.Health(); got != Failed {
				t.Errorf("Health = %s after a quarantine while failed, want failed", got)
			}
		})
	}
}

// TestSenderDropNewestCountsDrops: on every sink, under the drop-newest
// policy a Flush into a full queue counts the unsent remainder as dropped
// against the sending thread and never blocks; once the sink has Failed,
// further drops never lift it back to Degraded.
func TestSenderDropNewestCountsDrops(t *testing.T) {
	cfg := Config{
		NumThreads: 2, Plans: testPlans(), QueueCap: 4,
		Overflow: OverflowDropNewest, SenderBatch: 8,
	}
	for _, c := range frontEndCases(t, cfg) {
		t.Run(c.name, func(t *testing.T) {
			defer c.sink.Close() // inline drain; the full queue empties here
			s := c.sink.Sender(1)
			for k := uint64(0); k < 8; k++ {
				s.Send(branchEv(1, 1, k, 5, true))
			}
			// The eighth event filled the batch: queue holds 4, the rest
			// must be counted, not spun on.
			if got := c.fe.Drops(); !reflect.DeepEqual(got, []uint64{0, 4}) {
				t.Errorf("Drops = %v, want [0 4]", got)
			}
			if got := c.sink.Health(); got != Degraded {
				t.Errorf("Health = %s, want degraded", got)
			}
			c.fe.health.Store(int32(Failed)) // as a recovered panic does
			for k := uint64(8); k < 16; k++ {
				s.Send(branchEv(1, 1, k, 5, true))
			}
			if got := c.fe.Drops(); !reflect.DeepEqual(got, []uint64{0, 12}) {
				t.Errorf("Drops = %v, want [0 12]", got)
			}
			if got := c.sink.Health(); got != Failed {
				t.Errorf("Health = %s after a drop while failed, want failed", got)
			}
		})
	}
}

// TestSummarizeDeterministicFirst: the First field is the reason of the
// lowest-keyed violation per branch, independent of slice order.
func TestSummarizeDeterministicFirst(t *testing.T) {
	vs := []Violation{
		{BranchID: 7, Key1: 2000, Key2: 3, Reason: "later"},
		{BranchID: 7, Key1: 1000, Key2: 9, Reason: "lowest"},
		{BranchID: 7, Key1: 1000, Key2: 11, Reason: "same-key1-higher-key2"},
		{BranchID: 9, Key1: 500, Key2: 0, Reason: "other-branch"},
	}
	perms := [][]int{{0, 1, 2, 3}, {3, 2, 1, 0}, {1, 3, 0, 2}, {2, 0, 3, 1}}
	for _, p := range perms {
		shuffled := make([]Violation, len(vs))
		for i, j := range p {
			shuffled[i] = vs[j]
		}
		sums := SummarizeViolations(shuffled)
		if len(sums) != 2 {
			t.Fatalf("summaries = %v", sums)
		}
		for _, s := range sums {
			want := "lowest"
			if s.BranchID == 9 {
				want = "other-branch"
			}
			if s.First != want {
				t.Errorf("perm %v: branch %d First = %q, want %q", p, s.BranchID, s.First, want)
			}
		}
	}
}

package monitor

import (
	"sync"
	"testing"
	"time"

	"blockwatch/internal/core"
)

func testPlans() map[int]*core.CheckPlan {
	return map[int]*core.CheckPlan{
		1: {BranchID: 1, Kind: core.CheckShared, Reason: core.ReasonChecked},
		2: {BranchID: 2, Kind: core.CheckPartial, Reason: core.ReasonChecked},
		3: {BranchID: 3, Kind: core.CheckNone, Reason: core.ReasonNone},
	}
}

func branchEv(tid int32, branch int32, key2, sig uint64, taken bool) Event {
	return Event{
		Kind: EvBranch, Thread: tid, BranchID: branch,
		Key1: uint64(branch) * 1000, Key2: key2, Sig: sig, Taken: taken,
	}
}

// feed publishes test events through the per-thread Senders of one sink,
// routed by each event's Thread field; an out-of-range thread goes
// through the sink's quarantining Sender. Each thread's events must come
// from one goroutine at a time (the Sender contract). Tests that rely on
// every event reaching the queue as soon as it is sent configure
// SenderBatch: 1.
type feed struct {
	sink    Sink
	senders []*Sender
}

func newFeed(sink Sink, threads int) *feed {
	f := &feed{sink: sink, senders: make([]*Sender, threads)}
	for tid := range f.senders {
		f.senders[tid] = sink.Sender(tid)
	}
	return f
}

func (f *feed) Send(ev Event) {
	if tid := int(ev.Thread); tid >= 0 && tid < len(f.senders) {
		f.senders[tid].Send(ev)
		return
	}
	f.sink.Sender(int(ev.Thread)).Send(ev)
}

func TestMonitorDetectsSharedDivergence(t *testing.T) {
	m, err := New(Config{NumThreads: 4, Plans: testPlans()})
	if err != nil {
		t.Fatal(err)
	}
	in := newFeed(m, 4)
	m.Start()
	for tid := int32(0); tid < 4; tid++ {
		taken := tid != 2 // thread 2 deviates
		in.Send(branchEv(tid, 1, 7, 99, taken))
		in.Send(Event{Kind: EvDone, Thread: tid})
	}
	m.Close()
	if !m.Detected() {
		t.Fatal("divergence not detected")
	}
	vs := m.Violations()
	if len(vs) != 1 || vs[0].BranchID != 1 {
		t.Fatalf("violations = %v", vs)
	}
}

func TestMonitorCleanRunNoViolations(t *testing.T) {
	m, err := New(Config{NumThreads: 4, Plans: testPlans()})
	if err != nil {
		t.Fatal(err)
	}
	in := newFeed(m, 4)
	m.Start()
	var wg sync.WaitGroup
	for tid := int32(0); tid < 4; tid++ {
		tid := tid
		wg.Add(1)
		go func() {
			defer wg.Done()
			for iter := uint64(0); iter < 100; iter++ {
				in.Send(branchEv(tid, 1, iter, 5, iter%2 == 0))
				in.Send(branchEv(tid, 2, iter, uint64(tid%2), tid%2 == 0))
			}
			in.Send(Event{Kind: EvDone, Thread: tid})
		}()
	}
	wg.Wait()
	m.Close()
	if m.Detected() {
		t.Fatalf("false positive: %v", m.Violations())
	}
	if st := m.Stats(); st.Events != 800 {
		t.Errorf("Events = %d, want 800", st.Events)
	}
}

func TestMonitorPartialSubsetAtFlush(t *testing.T) {
	// Only 2 of 4 threads execute the branch; the pending check at Done
	// must still compare them.
	m, err := New(Config{NumThreads: 4, Plans: testPlans()})
	if err != nil {
		t.Fatal(err)
	}
	in := newFeed(m, 4)
	m.Start()
	in.Send(branchEv(0, 2, 1, 42, true))
	in.Send(branchEv(1, 2, 1, 42, false)) // same sig, different outcome
	for tid := int32(0); tid < 4; tid++ {
		in.Send(Event{Kind: EvDone, Thread: tid})
	}
	m.Close()
	if !m.Detected() {
		t.Fatal("subset divergence not detected at final flush")
	}
}

func TestMonitorSingleReporterNeverFlagged(t *testing.T) {
	m, err := New(Config{NumThreads: 4, Plans: testPlans()})
	if err != nil {
		t.Fatal(err)
	}
	in := newFeed(m, 4)
	m.Start()
	in.Send(branchEv(0, 2, 1, 42, true))
	for tid := int32(0); tid < 4; tid++ {
		in.Send(Event{Kind: EvDone, Thread: tid})
	}
	m.Close()
	if m.Detected() {
		t.Fatalf("single reporter flagged: %v", m.Violations())
	}
}

func TestMonitorBarrierGenerations(t *testing.T) {
	m, err := New(Config{NumThreads: 2, Plans: testPlans()})
	if err != nil {
		t.Fatal(err)
	}
	in := newFeed(m, 2)
	m.Start()
	// Epoch 1: both threads agree.
	in.Send(branchEv(0, 1, 1, 5, true))
	in.Send(branchEv(1, 1, 1, 5, true))
	in.Send(Event{Kind: EvFlush, Thread: 0})
	in.Send(Event{Kind: EvFlush, Thread: 1})
	// Epoch 2: same keys reused after the barrier — must not collide with
	// epoch 1 state (table cleared per generation).
	in.Send(branchEv(0, 1, 1, 6, false))
	in.Send(branchEv(1, 1, 1, 6, false))
	in.Send(Event{Kind: EvDone, Thread: 0})
	in.Send(Event{Kind: EvDone, Thread: 1})
	m.Close()
	if m.Detected() {
		t.Fatalf("cross-epoch false positive: %v", m.Violations())
	}
	if st := m.Stats(); st.Flushes != 1 {
		t.Errorf("Flushes = %d, want 1", st.Flushes)
	}
}

func TestMonitorCheckingDisabledDrains(t *testing.T) {
	m, err := New(Config{NumThreads: 2, Plans: testPlans(), CheckingDisabled: true, QueueCap: 16})
	if err != nil {
		t.Fatal(err)
	}
	in := newFeed(m, 2)
	m.Start()
	// Far more events than the queue capacity: must not deadlock.
	for i := uint64(0); i < 1000; i++ {
		in.Send(branchEv(0, 1, i, 5, true))
		in.Send(branchEv(1, 1, i, 5, false)) // would be a violation if checked
	}
	in.Send(Event{Kind: EvDone, Thread: 0})
	in.Send(Event{Kind: EvDone, Thread: 1})
	m.Close()
	if m.Detected() {
		t.Fatal("disabled monitor still checked")
	}
	if st := m.Stats(); st.Events != 2000 {
		t.Errorf("Events = %d, want 2000", st.Events)
	}
}

func TestMonitorUnknownBranchIgnored(t *testing.T) {
	m, err := New(Config{NumThreads: 2, Plans: testPlans()})
	if err != nil {
		t.Fatal(err)
	}
	in := newFeed(m, 2)
	m.Start()
	in.Send(branchEv(0, 99, 1, 5, true))
	in.Send(branchEv(1, 99, 1, 5, false))
	in.Send(branchEv(0, 3, 1, 5, true)) // plan exists but is unchecked
	in.Send(branchEv(1, 3, 1, 5, false))
	in.Send(Event{Kind: EvDone, Thread: 0})
	in.Send(Event{Kind: EvDone, Thread: 1})
	m.Close()
	if m.Detected() {
		t.Fatalf("unchecked branch flagged: %v", m.Violations())
	}
}

func TestMonitorCloseWithoutStart(t *testing.T) {
	m, err := New(Config{NumThreads: 2, Plans: testPlans(), SenderBatch: 1})
	if err != nil {
		t.Fatal(err)
	}
	in := newFeed(m, 2)
	in.Send(branchEv(0, 1, 1, 5, true))
	in.Send(branchEv(1, 1, 1, 5, false))
	m.Close() // synchronous drain path
	if !m.Detected() {
		t.Fatal("synchronous drain missed the violation")
	}
}

// TestMonitorCloseQuarantinesStragglers: the loop returns once it has
// seen every thread's EvDone, so an event published after that stays in
// its thread's ring. Close must count it as a quarantined straggler, as
// a Checker fed the same input does, and hand the emptied rings on.
func TestMonitorCloseQuarantinesStragglers(t *testing.T) {
	dropRings()
	cfg := Config{NumThreads: 1, Plans: testPlans()}
	straggler := branchEv(0, 1, 1, 5, true)
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	m.Start()
	s := m.Sender(0)
	s.Send(Event{Kind: EvDone, Thread: 0})
	<-m.done // the loop saw the last EvDone and returned
	s.Send(straggler)
	s.Flush()
	m.Close()

	c, err := NewChecker(cfg)
	if err != nil {
		t.Fatal(err)
	}
	c.Done(0, 0)
	c.Feed(0, []Event{straggler})
	c.Finish()

	ms, cs := m.Stats(), c.Stats()
	if ms.Quarantined != 1 || ms != cs || m.Health() != Degraded || c.Health() != Degraded {
		t.Fatalf("monitor %s %+v, checker %s %+v; want both degraded with 1 quarantined",
			m.Health(), ms, c.Health(), cs)
	}
	if m.queues != nil || len(spareRings) != 1 {
		t.Error("Close kept the rings instead of handing the emptied set on")
	}
}

func TestMonitorCloseUnblocksMissingDone(t *testing.T) {
	// Thread 1 never sends Done (e.g. it crashed under fault injection):
	// Close must still terminate and check what arrived.
	m, err := New(Config{NumThreads: 4, Plans: testPlans(), SenderBatch: 1})
	if err != nil {
		t.Fatal(err)
	}
	in := newFeed(m, 4)
	m.Start()
	in.Send(branchEv(0, 1, 1, 5, true))
	in.Send(branchEv(1, 1, 1, 5, false))
	for _, tid := range []int32{0, 2, 3} {
		in.Send(Event{Kind: EvDone, Thread: tid})
	}
	m.Close() // must not hang
	if !m.Detected() {
		t.Fatal("violation missed after forced close")
	}
}

func TestMonitorConfigErrors(t *testing.T) {
	if _, err := New(Config{NumThreads: 0, Plans: testPlans()}); err == nil {
		t.Error("want error for zero threads")
	}
	if _, err := New(Config{NumThreads: 2}); err == nil {
		t.Error("want error for nil plans")
	}
}

func TestMonitorStragglerRecheck(t *testing.T) {
	// All 4 threads report (instance checked eagerly), then a 5th report
	// arrives with the same key — only possible under fault; the duplicate
	// thread must be flagged.
	m, err := New(Config{NumThreads: 4, Plans: testPlans()})
	if err != nil {
		t.Fatal(err)
	}
	in := newFeed(m, 4)
	m.Start()
	for tid := int32(0); tid < 4; tid++ {
		in.Send(branchEv(tid, 1, 7, 5, true))
	}
	in.Send(branchEv(2, 1, 7, 5, true)) // duplicate instance report
	for tid := int32(0); tid < 4; tid++ {
		in.Send(Event{Kind: EvDone, Thread: tid})
	}
	m.Close()
	if !m.Detected() {
		t.Fatal("duplicate straggler report not detected")
	}
}

func TestSummarizeViolations(t *testing.T) {
	vs := []Violation{
		{BranchID: 3, Reason: "a"},
		{BranchID: 5, Reason: "b"},
		{BranchID: 3, Reason: "c"},
		{BranchID: 3, Reason: "d"},
	}
	sum := SummarizeViolations(vs)
	if len(sum) != 2 {
		t.Fatalf("got %d groups, want 2", len(sum))
	}
	if sum[0].BranchID != 3 || sum[0].Count != 3 || sum[0].First != "a" {
		t.Errorf("top group = %+v", sum[0])
	}
	if sum[1].BranchID != 5 || sum[1].Count != 1 {
		t.Errorf("second group = %+v", sum[1])
	}
	if len(SummarizeViolations(nil)) != 0 {
		t.Error("empty input must give empty summary")
	}
}

func TestMonitorSummarizeEndToEnd(t *testing.T) {
	m, err := New(Config{NumThreads: 2, Plans: testPlans()})
	if err != nil {
		t.Fatal(err)
	}
	in := newFeed(m, 2)
	m.Start()
	in.Send(branchEv(0, 1, 1, 5, true))
	in.Send(branchEv(1, 1, 1, 5, false))
	in.Send(Event{Kind: EvDone, Thread: 0})
	in.Send(Event{Kind: EvDone, Thread: 1})
	m.Close()
	sum := m.Summarize()
	if len(sum) != 1 || sum[0].BranchID != 1 {
		t.Fatalf("summary = %+v", sum)
	}
}

func TestMonitorBoundedUnderFlood(t *testing.T) {
	// A runaway faulty thread generates millions of distinct instances;
	// the table must stay bounded (forced flushes) instead of growing
	// without limit (this scenario OOM-killed an unbounded build).
	m, err := New(Config{NumThreads: 2, Plans: testPlans(), MaxInstances: 1000})
	if err != nil {
		t.Fatal(err)
	}
	in := newFeed(m, 2)
	m.Start()
	for i := uint64(0); i < 50_000; i++ {
		in.Send(branchEv(0, 1, i, 5, true))
	}
	in.Send(Event{Kind: EvDone, Thread: 0})
	in.Send(Event{Kind: EvDone, Thread: 1})
	m.Close()
	if m.Detected() {
		t.Fatalf("flood of singleton instances flagged: %v", m.Violations())
	}
	if st := m.Stats(); st.Flushes < 40 {
		t.Errorf("expected forced flushes under flood, got %d", st.Flushes)
	}
}

func TestMonitorFloodStillDetectsWithinWindow(t *testing.T) {
	m, err := New(Config{NumThreads: 2, Plans: testPlans(), SenderBatch: 1, MaxInstances: 1000})
	if err != nil {
		t.Fatal(err)
	}
	in := newFeed(m, 2)
	m.Start()
	// A genuine divergence, fully reported within one window: the eager
	// all-threads check fires before any forced flush can evict it.
	in.Send(branchEv(0, 1, 99_999, 5, true))
	in.Send(branchEv(1, 1, 99_999, 5, false))
	for i := uint64(0); i < 10_000; i++ {
		in.Send(branchEv(0, 1, i, 5, true))
	}
	in.Send(Event{Kind: EvDone, Thread: 0})
	in.Send(Event{Kind: EvDone, Thread: 1})
	m.Close()
	if !m.Detected() {
		t.Fatal("divergence lost under flood")
	}
}

func TestCrashedThreadCannotWedgeGatedProducer(t *testing.T) {
	// Thread 0 passes a barrier (flush) and keeps producing; thread 1
	// "crashes" before flushing and sends only its Done. With a small
	// queue, thread 0's producer would previously spin forever on its
	// gated, full queue. The live-thread generation rule must unwedge it.
	m, err := New(Config{NumThreads: 2, Plans: testPlans(), QueueCap: 64})
	if err != nil {
		t.Fatal(err)
	}
	in := newFeed(m, 2)
	m.Start()
	in.Send(branchEv(0, 1, 1, 5, true))
	in.Send(Event{Kind: EvFlush, Thread: 0}) // thread 0 now gated
	in.Send(Event{Kind: EvDone, Thread: 1})  // thread 1 dies without flushing

	done := make(chan struct{})
	go func() {
		defer close(done)
		// Far more post-barrier events than the queue holds: blocks
		// forever unless the generation closes.
		for i := uint64(0); i < 1000; i++ {
			in.Send(branchEv(0, 1, 100+i, 5, true))
		}
		in.Send(Event{Kind: EvDone, Thread: 0})
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("producer wedged on gated queue (deadlock regression)")
	}
	m.Close()
}

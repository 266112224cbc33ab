package monitor

import (
	"errors"
	"sync"
	"testing"
	"time"
)

// collectStream records every stream call in order, optionally failing
// after a set number of calls.
type collectStream struct {
	mu       sync.Mutex
	perTid   map[int][]Event
	controls map[int][]EventKind
	calls    int
	failAt   int // fail every call once calls >= failAt (0 = never)
}

func newCollectStream() *collectStream {
	return &collectStream{perTid: map[int][]Event{}, controls: map[int][]EventKind{}}
}

func (c *collectStream) StreamEvents(slot int, evs []Event) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.calls++
	if c.failAt > 0 && c.calls >= c.failAt {
		return errors.New("stream broken")
	}
	c.perTid[slot] = append(c.perTid[slot], append([]Event(nil), evs...)...)
	return nil
}

func (c *collectStream) StreamControl(slot int, ev Event) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.calls++
	if c.failAt > 0 && c.calls >= c.failAt {
		return errors.New("stream broken")
	}
	c.controls[slot] = append(c.controls[slot], ev.Kind)
	return nil
}

func (c *collectStream) events(tid int) []Event {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]Event(nil), c.perTid[tid]...)
}

func (c *collectStream) kinds(tid int) []EventKind {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]EventKind(nil), c.controls[tid]...)
}

func relayEv(tid, id int, sig uint64) Event {
	return Event{Kind: EvBranch, Thread: int32(tid), BranchID: int32(id), Key1: uint64(id), Key2: 1, Sig: sig}
}

func TestRelayPreservesPerThreadOrder(t *testing.T) {
	stream := newCollectStream()
	finished := false
	r, err := NewRelay(RelayConfig{
		NumThreads: 2,
		Stream:     stream,
		Finish: func(broken bool) (RelayOutcome, error) {
			if broken {
				t.Error("stream unexpectedly broken")
			}
			finished = true
			return RelayOutcome{Detected: true, Violations: []Violation{{BranchID: 9, Reason: "x"}}, Health: Healthy}, nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	r.Start()

	const perGen = 100
	var wg sync.WaitGroup
	for tid := 0; tid < 2; tid++ {
		tid := tid
		wg.Add(1)
		go func() {
			defer wg.Done()
			s := r.Sender(tid)
			for gen := 0; gen < 3; gen++ {
				for i := 0; i < perGen; i++ {
					s.Send(relayEv(tid, gen*perGen+i, uint64(i)))
				}
				s.Send(Event{Kind: EvFlush, Thread: int32(tid)})
			}
			s.Send(Event{Kind: EvDone, Thread: int32(tid)})
		}()
	}
	wg.Wait()
	r.Close()

	if !finished {
		t.Fatal("finisher never ran")
	}
	for tid := 0; tid < 2; tid++ {
		evs := stream.events(tid)
		if len(evs) != 3*perGen {
			t.Fatalf("tid %d: streamed %d events, want %d", tid, len(evs), 3*perGen)
		}
		for i, ev := range evs {
			if int(ev.BranchID) != i {
				t.Fatalf("tid %d: event %d out of order (branch %d)", tid, i, ev.BranchID)
			}
		}
		kinds := stream.kinds(tid)
		want := []EventKind{EvFlush, EvFlush, EvFlush, EvDone}
		if len(kinds) != len(want) {
			t.Fatalf("tid %d: control markers %v, want %v", tid, kinds, want)
		}
		for i := range want {
			if kinds[i] != want[i] {
				t.Fatalf("tid %d: control markers %v, want %v", tid, kinds, want)
			}
		}
	}
	if !r.Detected() {
		t.Error("outcome not published")
	}
	if got := r.Violations(); len(got) != 1 || got[0].BranchID != 9 {
		t.Errorf("violations not served from outcome: %v", got)
	}
}

// idleStream counts StreamIdle calls and can fail them.
type idleStream struct {
	collectStream
	mu      sync.Mutex
	idles   int
	idleErr error
}

func (s *idleStream) StreamIdle() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.idles++
	return s.idleErr
}

func (s *idleStream) idleCount() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.idles
}

func newIdleStream(idleErr error) *idleStream {
	return &idleStream{
		collectStream: collectStream{perTid: map[int][]Event{}, controls: map[int][]EventKind{}},
		idleErr:       idleErr,
	}
}

// TestRelayStreamIdleHook: a StreamIdler stream gets called during quiet
// periods, and an idle error degrades the relay like any stream failure.
func TestRelayStreamIdleHook(t *testing.T) {
	stream := newIdleStream(nil)
	r, err := NewRelay(RelayConfig{NumThreads: 1, Stream: stream})
	if err != nil {
		t.Fatal(err)
	}
	r.Start()
	s := r.Sender(0)
	s.Send(relayEv(0, 1, 1))
	// Let the relay drain and go idle at least once.
	deadline := time.Now().Add(5 * time.Second)
	for stream.idleCount() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("StreamIdle never called while relay was idle")
		}
		time.Sleep(time.Millisecond)
	}
	s.Send(Event{Kind: EvDone, Thread: 0})
	r.Close()
	if r.Health() != Healthy {
		t.Errorf("health = %v after clean idle calls", r.Health())
	}

	// A failing idle hook breaks the stream: later events are discarded
	// as drops and the relay degrades.
	failing := newIdleStream(errors.New("idle broken"))
	r2, err := NewRelay(RelayConfig{NumThreads: 1, Stream: failing})
	if err != nil {
		t.Fatal(err)
	}
	r2.Start()
	s2 := r2.Sender(0)
	deadline = time.Now().Add(5 * time.Second)
	for failing.idleCount() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("failing StreamIdle never called")
		}
		time.Sleep(time.Millisecond)
	}
	s2.Send(relayEv(0, 1, 1))
	s2.Send(Event{Kind: EvDone, Thread: 0})
	r2.Close()
	if r2.Health() != Degraded {
		t.Errorf("health = %v after idle error, want Degraded", r2.Health())
	}
	if got := failing.events(0); len(got) != 0 {
		t.Errorf("events streamed after idle error: %v", got)
	}
}

func TestRelayFailOpenOnStreamError(t *testing.T) {
	stream := newCollectStream()
	stream.failAt = 2 // first call succeeds, everything after fails
	var gotBroken bool
	r, err := NewRelay(RelayConfig{
		NumThreads: 2,
		QueueCap:   8, // tiny: producers must not wedge when the stream dies
		Stream:     stream,
		Finish: func(broken bool) (RelayOutcome, error) {
			gotBroken = broken
			return RelayOutcome{Health: Healthy}, nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	r.Start()

	doneSending := make(chan struct{})
	go func() {
		defer close(doneSending)
		var wg sync.WaitGroup
		for tid := 0; tid < 2; tid++ {
			tid := tid
			wg.Add(1)
			go func() {
				defer wg.Done()
				s := r.Sender(tid)
				for i := 0; i < 10_000; i++ {
					s.Send(relayEv(tid, i, 0))
				}
				s.Send(Event{Kind: EvDone, Thread: int32(tid)})
			}()
		}
		wg.Wait()
	}()

	select {
	case <-doneSending:
	case <-time.After(30 * time.Second):
		t.Fatal("producers wedged on a broken stream (fail-open violated)")
	}
	r.Close()

	if !gotBroken {
		t.Error("finisher not told the stream broke")
	}
	if r.Health() != Degraded {
		t.Errorf("health = %v, want Degraded", r.Health())
	}
	if r.Stats().Dropped == 0 {
		t.Error("discarded events not counted as drops")
	}
}

func TestRelayQuarantinesUnknownKind(t *testing.T) {
	stream := newCollectStream()
	r, err := NewRelay(RelayConfig{NumThreads: 1, Stream: stream})
	if err != nil {
		t.Fatal(err)
	}
	r.Start()
	s := r.Sender(0)
	s.Send(relayEv(0, 1, 0))
	s.Send(Event{Kind: EventKind(42), Thread: 0}) // treated as control: flushes, then forwarded
	s.Send(relayEv(0, 2, 0))
	s.Send(Event{Kind: EvDone, Thread: 0})
	r.Close()
	if got := r.Stats().Quarantined; got != 1 {
		t.Errorf("quarantined = %d, want 1", got)
	}
	evs := stream.events(0)
	if len(evs) != 2 || evs[0].BranchID != 1 || evs[1].BranchID != 2 {
		t.Errorf("branch events lost around quarantined kind: %v", evs)
	}
}

// TestRelayPanickingStream: a stream that panics mid-run must fail open —
// producers finish, Close returns, health is Failed.
func TestRelayPanickingStream(t *testing.T) {
	r, err := NewRelay(RelayConfig{
		NumThreads: 1,
		QueueCap:   8,
		Stream:     panicStream{},
		Finish: func(broken bool) (RelayOutcome, error) {
			return RelayOutcome{}, nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	r.Start()
	s := r.Sender(0)
	for i := 0; i < 1000; i++ {
		s.Send(relayEv(0, i, 0))
	}
	s.Send(Event{Kind: EvDone, Thread: 0})
	r.Close()
	if r.Health() != Failed {
		t.Errorf("health = %v, want Failed", r.Health())
	}
}

type panicStream struct{}

func (panicStream) StreamEvents(int, []Event) error { panic("stream bug") }
func (panicStream) StreamControl(int, Event) error  { return nil }

func TestRelayCloseWithoutStart(t *testing.T) {
	stream := newCollectStream()
	r, err := NewRelay(RelayConfig{NumThreads: 1, Stream: stream})
	if err != nil {
		t.Fatal(err)
	}
	s := r.Sender(0)
	s.Send(relayEv(0, 7, 1))
	s.Flush()
	s.Send(Event{Kind: EvDone, Thread: 0})
	r.Close() // never started: must drain synchronously
	if evs := stream.events(0); len(evs) != 1 || evs[0].BranchID != 7 {
		t.Errorf("unstarted close lost events: %v", evs)
	}
	r.Close() // idempotent
}

// TestRelayCloseWithoutStartOrDone: closing an unstarted relay whose
// producers never sent done markers must terminate (regression: the
// synchronous drain used to spin waiting for done).
func TestRelayCloseWithoutStartOrDone(t *testing.T) {
	r, err := NewRelay(RelayConfig{NumThreads: 2, Stream: newCollectStream()})
	if err != nil {
		t.Fatal(err)
	}
	r.Sender(0).Send(relayEv(0, 1, 0))
	done := make(chan struct{})
	go func() { r.Close(); close(done) }()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("Close of unstarted relay without done markers hung")
	}
}

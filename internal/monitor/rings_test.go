package monitor

import (
	"fmt"
	"slices"
	"sync"
	"testing"

	"blockwatch/internal/queue"
)

// dropRings empties the process's spare ring sets, so a test starts from
// freshly allocated queues.
func dropRings() {
	for {
		select {
		case <-spareRings:
		default:
			return
		}
	}
}

// ringSink is one sink kind built over the shared front end, for the
// ring hand-off tests.
type ringSink struct {
	name string
	// build returns an unstarted sink of two threads and its front end;
	// fail makes its consumer panic into Failed.
	build func(t *testing.T, fail bool) (Sink, *frontEnd)
	// wait blocks until the consumer goroutine of a started sink exits.
	wait func(Sink)
}

// panicOnBranch is an EventTap that fails the monitor goroutine.
func panicOnBranch(ev *Event) {
	if ev.Kind == EvBranch {
		panic("injected monitor fault")
	}
}

// panicOnDone is a stream that fails the relay goroutine on the first
// EvDone, after the relay counted it, so the relay still sees every
// EvDone: only its Failed health keeps the queues.
type panicOnDone struct{}

func (panicOnDone) StreamEvents(int, []Event) error { return nil }
func (panicOnDone) StreamControl(_ int, ev Event) error {
	if ev.Kind == EvDone {
		panic("stream bug")
	}
	return nil
}

func ringSinks() []ringSink {
	return []ringSink{
		{
			name: "monitor",
			build: func(t *testing.T, fail bool) (Sink, *frontEnd) {
				cfg := Config{NumThreads: 2, Plans: testPlans()}
				if fail {
					cfg.EventTap = panicOnBranch
				}
				m, err := New(cfg)
				if err != nil {
					t.Fatal(err)
				}
				return m, &m.frontEnd
			},
			wait: func(s Sink) { <-s.(*Monitor).done },
		},
		{
			name: "relay",
			build: func(t *testing.T, fail bool) (Sink, *frontEnd) {
				var stream EventStream = newCollectStream()
				if fail {
					stream = panicOnDone{}
				}
				r, err := NewRelay(RelayConfig{NumThreads: 2, Stream: stream})
				if err != nil {
					t.Fatal(err)
				}
				return r, &r.frontEnd
			},
			wait: func(s Sink) { <-s.(*Relay).done },
		},
	}
}

// sendRun publishes a short clean run: one branch event per thread and
// the EvDone of each thread in done.
func sendRun(s Sink, done ...int32) {
	for tid := int32(0); tid < 2; tid++ {
		snd := s.Sender(int(tid))
		snd.Send(branchEv(tid, 1, 1, 5, true))
		if slices.Contains(done, tid) {
			snd.Send(Event{Kind: EvDone, Thread: tid})
		} else {
			snd.Flush()
		}
	}
}

// TestRingsHandedOnAfterCleanClose: a sink that closed cleanly passes its
// queues to the next sink of the same shape, of either kind.
func TestRingsHandedOnAfterCleanClose(t *testing.T) {
	for _, a := range ringSinks() {
		for _, b := range ringSinks() {
			t.Run(a.name+"→"+b.name, func(t *testing.T) {
				dropRings()
				sa, fa := a.build(t, false)
				rings := slices.Clone(fa.queues)
				sa.Start()
				sendRun(sa, 0, 1)
				sa.Close()
				if sa.Health() != Healthy {
					t.Fatalf("health %v, want healthy", sa.Health())
				}
				sb, fb := b.build(t, false)
				if !slices.Equal(fb.queues, rings) {
					t.Fatal("the next sink did not take the closed sink's queues")
				}
				for _, q := range fb.queues {
					if !q.Empty() {
						t.Fatal("a handed-on queue is not empty")
					}
				}
				sb.Start()
				sendRun(sb, 0, 1)
				sb.Close()
				if sb.Health() != Healthy || sb.Detected() {
					t.Fatalf("second run: health %v, detected %t", sb.Health(), sb.Detected())
				}
			})
		}
	}
}

// TestRingsKeptAfterUncleanClose: the queues stay with their sink — and
// the next sink allocates its own — when a thread's EvDone is missing,
// when the consumer panicked into Failed, and, for a relay, when events
// were still queued at Close (published after the last EvDone). A
// monitor quarantines such events at Close and hands its emptied rings
// on (TestMonitorCloseQuarantinesStragglers).
func TestRingsKeptAfterUncleanClose(t *testing.T) {
	for _, k := range ringSinks() {
		type ringCase struct {
			name string
			run  func(t *testing.T) (Sink, *frontEnd)
		}
		cases := []ringCase{
			{"missing-done", func(t *testing.T) (Sink, *frontEnd) {
				s, f := k.build(t, false)
				s.Start()
				sendRun(s, 0)
				s.Close()
				return s, f
			}},
			{"failed", func(t *testing.T) (Sink, *frontEnd) {
				s, f := k.build(t, true)
				s.Start()
				sendRun(s, 0, 1)
				s.Close()
				if s.Health() != Failed {
					t.Fatalf("health %v, want failed", s.Health())
				}
				return s, f
			}},
		}
		if k.name == "relay" {
			cases = append(cases, ringCase{"queued", func(t *testing.T) (Sink, *frontEnd) {
				s, f := k.build(t, false)
				s.Start()
				sendRun(s, 0, 1)
				k.wait(s) // every EvDone consumed: the consumer has exited
				late := s.Sender(0)
				late.Send(branchEv(0, 1, 2, 5, true))
				late.Flush()
				s.Close()
				return s, f
			}})
		}
		for _, c := range cases {
			t.Run(k.name+"/"+c.name, func(t *testing.T) {
				dropRings()
				_, f := c.run(t)
				if len(spareRings) != 0 {
					t.Fatal("the queues of an unclean close were handed on")
				}
				if f.queues == nil {
					t.Fatal("the sink gave up its queues")
				}
				_, next := k.build(t, false)
				for _, q := range next.queues {
					if slices.Contains(f.queues, q) {
						t.Fatal("the next sink shares a queue with the unclean one")
					}
				}
			})
		}
	}
}

// TestRingsTwoSpares: a relay and a monitor that run at once in one
// process — a remote client and the daemon session it talks to — both
// hand their queues on, and the next pair takes one set each; a third
// set closed at the same time is left to the garbage collector.
func TestRingsTwoSpares(t *testing.T) {
	dropRings()
	sinks := ringSinks()
	sinks = append(sinks, sinks[0])
	var live []Sink
	var sets [][]*queue.SPSC[Event]
	for _, k := range sinks {
		s, f := k.build(t, false)
		live = append(live, s)
		sets = append(sets, slices.Clone(f.queues))
		s.Start()
	}
	for _, s := range live {
		sendRun(s, 0, 1)
		s.Close()
	}
	if got := len(spareRings); got != 2 {
		t.Fatalf("%d spare ring sets kept, want 2", got)
	}
	var taken [][]*queue.SPSC[Event]
	for _, k := range sinks[:2] {
		_, f := k.build(t, false)
		taken = append(taken, f.queues)
	}
	if !slices.Equal(taken[0], sets[0]) || !slices.Equal(taken[1], sets[1]) {
		t.Fatal("the next relay and monitor did not take the two spare sets")
	}
	_, f := sinks[2].build(t, false)
	for _, set := range sets {
		if slices.Equal(f.queues, set) {
			t.Fatal("a third sink took a ring set the spares hold no more")
		}
	}
}

// TestQueueBacklogAfterHandOff: a closed monitor whose queues went to
// the next monitor reports no backlog, whatever the new owner queues.
func TestQueueBacklogAfterHandOff(t *testing.T) {
	dropRings()
	a, err := New(Config{NumThreads: 2, Plans: testPlans()})
	if err != nil {
		t.Fatal(err)
	}
	a.Start()
	sendRun(a, 0, 1)
	a.Close()
	b, err := New(Config{NumThreads: 2, Plans: testPlans()})
	if err != nil {
		t.Fatal(err)
	}
	sendRun(b) // unstarted: the events stay queued
	if got := b.QueueBacklog(); got != 2 {
		t.Fatalf("new owner's backlog = %d, want 2", got)
	}
	if got := a.QueueBacklog(); got != 0 {
		t.Fatalf("closed monitor's backlog = %d, want 0", got)
	}
	sendRun(b, 0, 1)
	b.Close()
}

// TestRingsNotKeptPastCap: a ring set above spareRingBytes is left to the
// garbage collector, and one of another shape does not serve a sink.
func TestRingsNotKeptPastCap(t *testing.T) {
	dropRings()
	const threads = 7 // 7 × 16384 × 40 B > 4 MiB
	m, err := New(Config{NumThreads: threads, Plans: testPlans()})
	if err != nil {
		t.Fatal(err)
	}
	m.Start()
	for tid := int32(0); tid < threads; tid++ {
		m.Sender(int(tid)).Send(Event{Kind: EvDone, Thread: tid})
	}
	m.Close()
	if len(spareRings) != 0 {
		t.Fatalf("a %d-thread ring set was kept", threads)
	}

	a, err := New(Config{NumThreads: 2, Plans: testPlans(), QueueCap: 64})
	if err != nil {
		t.Fatal(err)
	}
	rings := slices.Clone(a.queues)
	a.Start()
	sendRun(a, 0, 1)
	a.Close()
	b, err := New(Config{NumThreads: 2, Plans: testPlans(), QueueCap: 100}) // rounds to 128
	if err != nil {
		t.Fatal(err)
	}
	if slices.Equal(b.queues, rings) || b.queues[0].Cap() != 128 {
		t.Fatal("a sink took a ring set of another capacity")
	}
	b.Close()
}

// TestRingsBackToBack runs monitors and relays back to back, alternating,
// with a producer goroutine per thread and queues small enough to wrap
// and fill: every run must see exactly its own events, so no event of one
// run ever reaches another through the handed-on queues. Under -race it
// also checks that the hand-off orders the old consumer's last access
// before the new producers' first.
func TestRingsBackToBack(t *testing.T) {
	dropRings()
	const threads, perThread = 2, 300
	var prev []*queue.SPSC[Event]
	reused := 0
	for run := 0; run < 40; run++ {
		var sink Sink
		var fe *frontEnd
		var stream *collectStream
		if run%2 == 0 {
			m, err := New(Config{NumThreads: threads, Plans: testPlans(), QueueCap: 32, SenderBatch: 8})
			if err != nil {
				t.Fatal(err)
			}
			sink, fe = m, &m.frontEnd
		} else {
			stream = newCollectStream()
			r, err := NewRelay(RelayConfig{NumThreads: threads, QueueCap: 32, SenderBatch: 8, Stream: stream})
			if err != nil {
				t.Fatal(err)
			}
			sink, fe = r, &r.frontEnd
		}
		if slices.Equal(fe.queues, prev) {
			reused++
		}
		prev = slices.Clone(fe.queues)
		sink.Start()
		var wg sync.WaitGroup
		for tid := int32(0); tid < threads; tid++ {
			s := sink.Sender(int(tid))
			wg.Add(1)
			go func() {
				defer wg.Done()
				for k := uint64(0); k < perThread; k++ {
					s.Send(branchEv(tid, 1, k, uint64(run), true))
					if k%100 == 99 {
						s.Send(Event{Kind: EvFlush, Thread: tid})
					}
				}
				s.Send(Event{Kind: EvDone, Thread: tid})
			}()
		}
		wg.Wait()
		sink.Close()
		label := fmt.Sprintf("run %d", run)
		if sink.Detected() || sink.Health() != Healthy {
			t.Fatalf("%s: detected %t, health %v", label, sink.Detected(), sink.Health())
		}
		if stream == nil {
			if st := sink.Stats(); st.Events != threads*perThread || st.Instances != perThread || st.Quarantined != 0 {
				t.Fatalf("%s: stats %+v", label, st)
			}
			continue
		}
		for tid := 0; tid < threads; tid++ {
			evs := stream.events(tid)
			if len(evs) != perThread {
				t.Fatalf("%s: thread %d streamed %d events, want %d", label, tid, len(evs), perThread)
			}
			for k, ev := range evs {
				if ev.Sig != uint64(run) || ev.Key2 != uint64(k) || int(ev.Thread) != tid {
					t.Fatalf("%s: thread %d event %d = %+v, not this run's", label, tid, k, ev)
				}
			}
		}
	}
	if reused < 39 {
		t.Fatalf("queues reused by %d of 39 runs", reused)
	}
}

package monitor

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"blockwatch/internal/metrics"
)

// parkDeadline bounds every wait in the park tests. A lost wake-up leaves
// the consumer parked with no timer, so the wait runs into it and the
// test fails naming the wait instead of hiding the bug as latency.
const parkDeadline = 30 * time.Second

// waitParked waits until the consumer of f has announced that it is
// parked (or is about to block).
func waitParked(t testing.TB, f *frontEnd, what string) {
	t.Helper()
	deadline := time.Now().Add(parkDeadline)
	for !f.park.parked.Load() {
		if time.Now().After(deadline) {
			t.Errorf("%s: consumer never parked", what)
			return
		}
		time.Sleep(20 * time.Microsecond)
	}
}

// parks reads the bw_*_parks_total counter of a registry.
func parks(reg *metrics.Registry, name string) uint64 {
	v, _ := reg.Snapshot().Counter(name)
	return v
}

// TestParkWakeStress drives the monitor through many park/wake cycles
// with a tiny queue, so producers block mid-publish on a full queue while
// the consumer may be parked. Before some bursts every producer waits
// until the monitor has parked; before the others it pauses a random
// moment, so bursts also land while the monitor is deciding to park. A
// lost wake-up wedges a producer (or leaves a generation unprocessed)
// and fails the test at parkDeadline.
func TestParkWakeStress(t *testing.T) {
	const threads, gens, burst = 3, 150, 20
	for _, batch := range []int{1, 0} {
		t.Run(fmt.Sprintf("batch=%d", batch), func(t *testing.T) {
			reg := metrics.NewRegistry()
			m, err := New(Config{NumThreads: threads, Plans: testPlans(),
				QueueCap: 8, SenderBatch: batch, Metrics: reg})
			if err != nil {
				t.Fatal(err)
			}
			m.Start()
			var wg sync.WaitGroup
			for tid := 0; tid < threads; tid++ {
				wg.Add(1)
				go func(tid int) {
					defer wg.Done()
					rng := rand.New(rand.NewSource(int64(tid) + 1))
					s := m.Sender(tid)
					for g := 0; g < gens; g++ {
						if g%3 == 0 {
							waitParked(t, &m.frontEnd, fmt.Sprintf("thread %d gen %d", tid, g))
						} else {
							time.Sleep(time.Duration(rng.Intn(200)) * time.Microsecond)
						}
						for b := 0; b < burst; b++ {
							s.Send(branchEv(int32(tid), 1, uint64(g*burst+b), 5, true))
						}
						s.Send(Event{Kind: EvFlush, Thread: int32(tid)})
					}
				}(tid)
			}
			producers := make(chan struct{})
			go func() { wg.Wait(); close(producers) }()
			select {
			case <-producers:
			case <-time.After(parkDeadline):
				t.Fatal("producers wedged on a parked monitor: lost wake-up")
			}
			// Close would wake a parked monitor through stop and hide a lost
			// wake-up, so every generation must be processed before it.
			waitUntil(t, parkDeadline, "every generation processed by a parked monitor", func() bool {
				return m.Stats().Flushes == gens
			})
			for tid := 0; tid < threads; tid++ {
				m.Sender(tid).Send(Event{Kind: EvDone, Thread: int32(tid)})
			}
			m.Close()
			st := m.Stats()
			if want := uint64(threads * gens * burst); st.Events != want {
				t.Errorf("Events = %d, want %d", st.Events, want)
			}
			if m.Detected() || m.Health() != Healthy || st.Dropped != 0 || st.Quarantined != 0 {
				t.Errorf("run not clean: health %v, stats %+v, violations %v", m.Health(), st, m.Violations())
			}
			if n := parks(reg, "bw_monitor_parks_total"); n < gens/3 {
				t.Errorf("bw_monitor_parks_total = %d, want at least %d", n, gens/3)
			}
		})
	}
}

// TestParkedMonitorWatchdogFires arms the real-clock watchdog with one
// thread hung before its flush: the monitor parks with the pending work,
// and its park timer must still wake it in time to force the generation
// closed.
func TestParkedMonitorWatchdogFires(t *testing.T) {
	reg := metrics.NewRegistry()
	m, err := New(Config{NumThreads: 2, Plans: testPlans(), SenderBatch: 1,
		StallDeadline: 20 * time.Millisecond, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	in := newFeed(m, 2)
	m.Start()
	in.Send(branchEv(0, 1, 0, 5, true))
	in.Send(Event{Kind: EvFlush, Thread: 0})
	waitUntil(t, parkDeadline, "watchdog fire on a parked monitor", func() bool {
		return m.Stats().Watchdog >= 1
	})
	if parks(reg, "bw_monitor_parks_total") == 0 {
		t.Error("monitor never parked before the watchdog fired")
	}
	in.Send(Event{Kind: EvDone, Thread: 0})
	in.Send(Event{Kind: EvDone, Thread: 1})
	m.Close()
	if got := m.Health(); got != Degraded {
		t.Errorf("Health = %v, want Degraded", got)
	}
	if m.Detected() {
		t.Fatalf("false positive: %v", m.Violations())
	}
}

// closeWithin runs closeFn and fails if it does not return in time.
func closeWithin(t *testing.T, what string, closeFn func()) {
	t.Helper()
	done := make(chan struct{})
	go func() { closeFn(); close(done) }()
	select {
	case <-done:
	case <-time.After(parkDeadline):
		t.Fatalf("%s: Close did not wake the parked consumer", what)
	}
}

// TestParkedMonitorWakesOnClose: a monitor parked with no timer (watchdog
// off, no producer will publish again) is woken by Close, which still
// performs the final drain and check.
func TestParkedMonitorWakesOnClose(t *testing.T) {
	m, err := New(Config{NumThreads: 2, Plans: testPlans(), SenderBatch: 1})
	if err != nil {
		t.Fatal(err)
	}
	in := newFeed(m, 2)
	m.Start()
	// Two threads disagree on a shared branch; neither sends done, so
	// only Close's final check can report it.
	in.Send(branchEv(0, 1, 7, 5, true))
	in.Send(branchEv(1, 1, 7, 5, false))
	waitParked(t, &m.frontEnd, "monitor")
	closeWithin(t, "monitor", m.Close)
	if !m.Detected() {
		t.Error("final check after a parked Close missed the violation")
	}
}

// TestParkedRelayWakesOnClose: a relay parked with no timed duty is woken
// by Close, which still drains and runs the finisher.
func TestParkedRelayWakesOnClose(t *testing.T) {
	stream := newCollectStream()
	finished := make(chan bool, 1)
	reg := metrics.NewRegistry()
	r, err := NewRelay(RelayConfig{NumThreads: 1, Stream: stream, Metrics: reg,
		Finish: func(broken bool) (RelayOutcome, error) {
			finished <- broken
			return RelayOutcome{Health: Healthy}, nil
		}})
	if err != nil {
		t.Fatal(err)
	}
	r.Start()
	s := r.Sender(0)
	s.Send(relayEv(0, 1, 1))
	s.Flush()
	waitParked(t, &r.frontEnd, "relay")
	closeWithin(t, "relay", r.Close)
	if parks(reg, "bw_relay_parks_total") == 0 {
		t.Error("bw_relay_parks_total = 0 after the relay parked")
	}
	select {
	case broken := <-finished:
		if broken {
			t.Error("finisher saw a broken stream")
		}
	default:
		t.Error("finisher did not run")
	}
	if got := stream.events(0); len(got) != 1 {
		t.Errorf("streamed %d events, want 1", len(got))
	}
}

// dutyStream is an idle stream with a timed duty: StreamIdle asks to be
// called again within every, and counts its calls.
type dutyStream struct {
	*idleStream
	every time.Duration
}

func (s dutyStream) StreamIdle() (time.Duration, error) {
	_, err := s.idleStream.StreamIdle()
	return s.every, err
}

// TestParkedRelayWakesForStreamDuty: a relay parked with nothing queued
// still wakes for its stream's timed duty.
func TestParkedRelayWakesForStreamDuty(t *testing.T) {
	stream := dutyStream{idleStream: newIdleStream(nil), every: time.Millisecond}
	r, err := NewRelay(RelayConfig{NumThreads: 1, Stream: stream})
	if err != nil {
		t.Fatal(err)
	}
	r.Start()
	waitParked(t, &r.frontEnd, "relay")
	base := stream.idleCount()
	waitUntil(t, parkDeadline, "StreamIdle called by a parked relay", func() bool {
		return stream.idleCount() >= base+5
	})
	r.Sender(0).Send(Event{Kind: EvDone, Thread: 0})
	r.Close()
}

// TestMonitorParkAllocsFlat: parking is allocation-free per cycle. A run
// with hundreds of park/wake cycles — timed parks with the watchdog armed
// and an instance open, untimed ones at each generation boundary — costs
// the same allocations as a run with one of each.
func TestMonitorParkAllocsFlat(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; alloc gate runs in the non-race jobs")
	}
	const threads = 2
	run := func(gens int) {
		m, err := New(Config{NumThreads: threads, Plans: testPlans(), SenderBatch: 1,
			StallDeadline: time.Hour})
		if err != nil {
			t.Fatal(err)
		}
		m.Start()
		s0, s1 := m.Sender(0), m.Sender(1)
		for g := 0; g < gens; g++ {
			s0.Send(branchEv(0, 1, uint64(g), 5, true))
			waitParked(t, &m.frontEnd, "timed park") // instance open: stalled, timer armed
			s1.Send(branchEv(1, 1, uint64(g), 5, true))
			s0.Send(Event{Kind: EvFlush, Thread: 0})
			s1.Send(Event{Kind: EvFlush, Thread: 1})
			for m.Stats().Flushes != uint64(g+1) { // no closure: it would allocate
				time.Sleep(20 * time.Microsecond)
			}
			waitParked(t, &m.frontEnd, "untimed park")
		}
		s0.Send(Event{Kind: EvDone, Thread: 0})
		s1.Send(Event{Kind: EvDone, Thread: 1})
		m.Close()
		if st := m.Stats(); m.Detected() || st.Instances != uint64(gens) || st.Watchdog != 0 {
			t.Fatalf("run not clean: %+v %v", st, m.Violations())
		}
	}
	run(200) // warm the spare table
	few := testing.AllocsPerRun(3, func() { run(1) })
	many := testing.AllocsPerRun(3, func() { run(200) })
	t.Logf("allocs per run: %.0f with 1 park cycle, %.0f with 200", few, many)
	if many > few+2 {
		t.Errorf("allocations grow with park cycles: %.0f with 1, %.0f with 200", few, many)
	}
}

// heldStream is a relay stream that blocks its first StreamEvents call
// until release closes, then records the branch events in order.
type heldStream struct {
	release chan struct{}
	mu      sync.Mutex
	got     []Event
}

func (s *heldStream) StreamEvents(_ int, evs []Event) error {
	<-s.release
	s.mu.Lock()
	s.got = append(s.got, evs...)
	s.mu.Unlock()
	return nil
}

func (s *heldStream) StreamControl(int, Event) error { return nil }

// TestSenderParksOnFullRing: a producer whose 64-slot ring fills while
// the consumer is held parks once and blocks, instead of spinning, and
// the consumer's release wakes it. Every event arrives, in order.
func TestSenderParksOnFullRing(t *testing.T) {
	const ring, events = 64, 64 * 16
	stream := &heldStream{release: make(chan struct{})}
	reg := metrics.NewRegistry()
	r, err := NewRelay(RelayConfig{NumThreads: 1, QueueCap: ring, Stream: stream, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	r.Start()
	sent := make(chan struct{})
	go func() {
		defer close(sent)
		s := r.Sender(0)
		for i := range events {
			s.Send(relayEv(0, 1, uint64(i)))
			if i%100 == 99 {
				s.Send(Event{Kind: EvFlush, Thread: 0})
			}
		}
		s.Send(Event{Kind: EvDone, Thread: 0})
	}()
	waitUntil(t, parkDeadline, "the producer to park on its full ring", func() bool {
		return parks(reg, "bw_sender_parks_total") > 0
	})
	time.Sleep(20 * time.Millisecond) // a spinning producer would count on
	if n := parks(reg, "bw_sender_parks_total"); n != 1 {
		t.Errorf("bw_sender_parks_total = %d with the consumer held, want 1", n)
	}
	select {
	case <-sent:
		t.Fatal("the producer finished while its ring was full")
	default:
	}
	close(stream.release)
	select {
	case <-sent:
	case <-time.After(parkDeadline):
		t.Fatal("the consumer's release did not wake the parked producer")
	}
	r.Close()
	// One park per ring-full at most, twice that for wake-ups that find
	// the ring refilled: a handful, never one per retry.
	if n := parks(reg, "bw_sender_parks_total"); n > 2*events/ring {
		t.Errorf("bw_sender_parks_total = %d for %d events through a %d-slot ring", n, events, ring)
	}
	if len(stream.got) != events {
		t.Fatalf("streamed %d events, want %d", len(stream.got), events)
	}
	for i, ev := range stream.got {
		if ev.Sig != uint64(i) {
			t.Fatalf("event %d has Sig %d: lost or reordered", i, ev.Sig)
		}
	}
	if st := r.Stats(); r.Health() != Healthy || st.Dropped != 0 || st.Quarantined != 0 {
		t.Errorf("run not clean: health %v, stats %+v", r.Health(), st)
	}
}

// flood runs one producer goroutine per thread of sink, each sending
// events branch events, half of them through SendBatch, with a flush
// and a barrier every 50 and a final EvDone. Like the interpreter's
// threads, no producer starts a generation before every thread has
// flushed the last one. It fails the test if the producers do not
// finish within parkDeadline: a full ring whose consumer never woke its
// parked producer.
func flood(t *testing.T, sink Sink, threads, events int) {
	t.Helper()
	const gen = 50
	barriers := make([]sync.WaitGroup, events/gen+1)
	for i := range barriers {
		barriers[i].Add(threads)
	}
	var wg sync.WaitGroup
	for tid := range threads {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s := sink.Sender(tid)
			batch := make([]Event, 0, gen)
			for i := range events {
				ev := branchEv(int32(tid), 1, uint64(i), 5, true)
				if i%2 == 0 {
					s.Send(ev)
				} else {
					batch = append(batch, ev)
				}
				if i%gen == gen-1 {
					s.SendBatch(batch)
					batch = batch[:0]
					s.Send(Event{Kind: EvFlush, Thread: int32(tid)})
					b := &barriers[i/gen]
					b.Done()
					b.Wait()
				}
			}
			s.SendBatch(batch)
			s.Send(Event{Kind: EvDone, Thread: int32(tid)})
		}()
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(parkDeadline):
		t.Fatal("producers wedged on a full ring: lost wake-up")
	}
}

// innerStream forwards a relay's stream into an inner monitor's Senders,
// branch runs through SendBatch, so the relay goroutine is itself a
// producer that parks on full rings: it keeps SendBatch's park path,
// which bwperf's ingest driver publishes through, under stress.
type innerStream struct{ senders []*Sender }

func (s innerStream) StreamEvents(slot int, evs []Event) error {
	s.senders[slot].SendBatch(evs)
	return nil
}

func (s innerStream) StreamControl(slot int, ev Event) error {
	s.senders[slot].Send(ev)
	return nil
}

// TestProducerParkWakeStress floods 8-slot rings through every consumer
// that frees ring slots, so producers park on full rings again and
// again: the monitor's drain, a relay's drain before and after its
// stream fails, the failsafe drain after a recovered monitor panic, a
// relay forwarding into an inner monitor through SendBatch (a consumer
// goroutine that is itself a parked producer), and Close discarding
// what a producer published after the last EvDone. A lost wake-up
// wedges a producer and fails at parkDeadline.
func TestProducerParkWakeStress(t *testing.T) {
	const threads, events, rounds = 3, 600, 4
	cases := []struct {
		name string
		run  func(t *testing.T, reg *metrics.Registry)
	}{
		{"monitor drain", func(t *testing.T, reg *metrics.Registry) {
			m, err := New(Config{NumThreads: threads, Plans: testPlans(), QueueCap: 8, Metrics: reg})
			if err != nil {
				t.Fatal(err)
			}
			m.Start()
			flood(t, m, threads, events)
			m.Close()
			if st := m.Stats(); m.Detected() || m.Health() != Healthy || st.Events != threads*events {
				t.Errorf("run not clean: health %v, stats %+v", m.Health(), st)
			}
		}},
		{"relay drain, stream fails", func(t *testing.T, reg *metrics.Registry) {
			stream := newCollectStream()
			stream.failAt = 20
			r, err := NewRelay(RelayConfig{NumThreads: threads, QueueCap: 8, Stream: stream, Metrics: reg})
			if err != nil {
				t.Fatal(err)
			}
			r.Start()
			flood(t, r, threads, events)
			r.Close()
			if r.Health() != Degraded || r.Stats().Dropped == 0 {
				t.Errorf("broken stream: health %v, stats %+v", r.Health(), r.Stats())
			}
		}},
		{"failsafe after panic", func(t *testing.T, reg *metrics.Registry) {
			var seen atomic.Int64
			m, err := New(Config{NumThreads: threads, Plans: testPlans(), QueueCap: 8, Metrics: reg,
				EventTap: func(*Event) {
					if seen.Add(1) == 100 {
						panic("injected monitor fault")
					}
				}})
			if err != nil {
				t.Fatal(err)
			}
			m.Start()
			flood(t, m, threads, events)
			m.Close()
			if m.Health() != Failed || m.Detected() {
				t.Errorf("health %v, detected %t; want Failed, no detection", m.Health(), m.Detected())
			}
		}},
		{"relay into monitor by SendBatch", func(t *testing.T, reg *metrics.Registry) {
			// Only the inner monitor reports to reg, so its Senders'
			// parks are the relay goroutine's. The inner rings are
			// twice the relay's: events a thread sends past a barrier
			// wait gated in its inner ring until the relay forwards the
			// other threads' flushes, and with barrier-synchronized
			// producers it forwards at most two relay rings of them
			// first. A tap that pauses the inner monitor now and then
			// makes the relay wait on full inner rings.
			var seen atomic.Int64
			inner, err := New(Config{NumThreads: threads, Plans: testPlans(), QueueCap: 16, Metrics: reg,
				EventTap: func(*Event) {
					if seen.Add(1)%64 == 0 {
						time.Sleep(20 * time.Microsecond)
					}
				}})
			if err != nil {
				t.Fatal(err)
			}
			stream := innerStream{senders: make([]*Sender, threads)}
			for tid := range stream.senders {
				stream.senders[tid] = inner.Sender(tid)
			}
			r, err := NewRelay(RelayConfig{NumThreads: threads, QueueCap: 8, Stream: stream,
				Finish: func(bool) (RelayOutcome, error) {
					inner.Close()
					return RelayOutcome{Health: inner.Health(), Stats: inner.Stats()}, nil
				}})
			if err != nil {
				t.Fatal(err)
			}
			inner.Start()
			r.Start()
			flood(t, r, threads, events)
			closeWithin(t, "relay", r.Close)
			if st := r.Stats(); inner.Detected() || r.Health() != Healthy || st.Events != threads*events {
				t.Errorf("run not clean: health %v, stats %+v", r.Health(), st)
			}
		}},
		{"Close discards stragglers", func(t *testing.T, reg *metrics.Registry) {
			const ring = 8
			m, err := New(Config{NumThreads: threads, Plans: testPlans(), QueueCap: ring, SenderBatch: 1, Metrics: reg})
			if err != nil {
				t.Fatal(err)
			}
			m.Start()
			for tid := range threads {
				m.Sender(tid).Send(Event{Kind: EvDone, Thread: int32(tid)})
			}
			<-m.done // the consumer saw every EvDone and left the rings
			before := parks(reg, "bw_sender_parks_total")
			sent := make(chan struct{})
			go func() {
				defer close(sent)
				s := m.Sender(0)
				for i := range ring {
					s.Send(branchEv(0, 1, uint64(i), 5, true))
				}
				s.Send(Event{Kind: EvFlush, Thread: 0}) // finds the ring full
			}()
			waitUntil(t, parkDeadline, "a straggler to park", func() bool {
				return parks(reg, "bw_sender_parks_total") > before
			})
			m.Close()
			select {
			case <-sent:
			case <-time.After(parkDeadline):
				t.Fatal("Close's discard did not wake the parked producer")
			}
			if q := m.Stats().Quarantined; q < ring {
				t.Errorf("Quarantined = %d, want at least %d", q, ring)
			}
			dropRings() // the straggler's flush may sit in a handed-on ring
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			reg := metrics.NewRegistry()
			for range rounds {
				c.run(t, reg)
			}
			if parks(reg, "bw_sender_parks_total") == 0 {
				t.Error("no producer ever parked: the case exercised no wake-up")
			}
		})
	}
}

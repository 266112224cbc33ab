package monitor

import (
	"fmt"
	"math/rand"
	"sync"
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

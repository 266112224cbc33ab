package monitor

import (
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"
	"time"
)

// diffThreads is the thread count of the Checker-versus-Monitor streams.
const diffThreads = 3

// byteSource turns fuzz input into choices; past the end every choice
// is 0.
type byteSource struct {
	data []byte
	i    int
}

func (b *byteSource) next() byte {
	if b.i >= len(b.data) {
		return 0
	}
	b.i++
	return b.data[b.i-1]
}

func (b *byteSource) intn(n int) int { return int(b.next()) % n }

// diffCase is one input of the Checker-versus-Monitor comparison: each
// thread's event stream (slot diffThreads is an out-of-range slot whose
// events must be quarantined), and the chunking of the interleaved
// order in which the Checker receives them.
type diffCase struct {
	streams [diffThreads + 1][]Event
	// stragglers reports an event after a thread's effective done: the
	// concurrent Monitor's loop may end, at the last done, before it
	// drains such events, so only the preloaded comparison checks them.
	stragglers bool
	order      *byteSource
}

// decodeDiffCase builds per-thread streams from data: barrier
// generations of branch instances with consistent or divergent reports,
// duplicate reports, reports mislabeled with another thread, corrupt
// kinds and thread IDs, unknown and unchecked branches, missing flushes
// and dones, and stragglers after done. Every (Key1, Key2) instance gets
// at most diffThreads reports in the whole stream, so an instance is
// checked eagerly at most once, on its full report set: the verdict then
// does not depend on the cross-thread order within a generation, which a
// Monitor's drain schedule and a Checker's input order do not share.
func decodeDiffCase(data []byte) *diffCase {
	src := &byteSource{data: data}
	dc := &diffCase{}
	key2 := uint64(0)
	gens := 1 + src.intn(4)
	for g := 0; g < gens; g++ {
		for range src.intn(6) {
			key2++
			branch := int32(1 + src.intn(4)) // 3 is unchecked, 4 unknown
			sig, taken := uint64(src.intn(2)), src.next()&1 == 1
			for range 1 + src.intn(diffThreads) {
				b := src.next()
				tid := int(b>>4) % diffThreads // duplicates are allowed
				ev := Event{Kind: EvBranch, Thread: int32(tid), BranchID: branch,
					Key1: uint64(branch) * 1000, Key2: key2, Sig: sig, Taken: taken}
				if b&3 == 0 {
					ev.Sig ^= 1
				}
				if b&12 == 0 {
					ev.Taken = !ev.Taken
				}
				dc.streams[tid] = append(dc.streams[tid], ev)
			}
		}
		for tid := range diffThreads {
			if src.next()%8 != 0 { // a missing flush now and then
				dc.streams[tid] = append(dc.streams[tid], Event{Kind: EvFlush, Thread: int32(tid)})
			}
		}
	}
	for tid := range diffThreads {
		if src.next()%8 != 0 {
			dc.streams[tid] = append(dc.streams[tid], Event{Kind: EvDone, Thread: int32(tid)})
		}
		for range src.intn(4) / 3 * 2 { // stragglers: fresh single-report instances
			key2++
			dc.streams[tid] = append(dc.streams[tid],
				Event{Kind: EvBranch, Thread: int32(tid), BranchID: 1, Key1: 1000, Key2: key2})
		}
	}
	for range src.intn(3) {
		key2++
		dc.streams[diffThreads] = append(dc.streams[diffThreads],
			Event{Kind: EvBranch, Thread: int32(src.intn(diffThreads)), BranchID: 1, Key1: 1000, Key2: key2})
	}
	// Corruption of kinds and thread IDs. An event never changes the
	// instance it reports, so the report bound above still holds.
	for tid := range diffThreads {
		for i := range dc.streams[tid] {
			b := src.next()
			if b%16 != 15 {
				continue
			}
			ev := &dc.streams[tid][i]
			switch (b >> 4) % 5 {
			case 0:
				ev.Kind = EventKind(4) // unknown kind
			case 1:
				ev.Kind = EvFlush
			case 2:
				ev.Kind = EvDone
			case 3:
				ev.Thread = int32(diffThreads + 1) // out of range
			case 4:
				ev.Thread = int32((tid + 1) % diffThreads) // another thread's label
			}
		}
	}
	for tid := range diffThreads {
		done := false
		for _, ev := range dc.streams[tid] {
			if done {
				dc.stragglers = true
			}
			done = done || ev.Kind == EvDone && int(ev.Thread) == tid
		}
	}
	dc.order = src
	return dc
}

// feedChecker interleaves the streams in chunks chosen by the rest of
// the input and feeds them to a fresh Checker as frames: a run of events
// through Feed, a flush or done marker through Flush or Done.
func (dc *diffCase) feedChecker(t testing.TB, cfg Config) *Checker {
	c, err := NewChecker(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var pos [diffThreads + 1]int
	left := func() bool {
		for i, s := range dc.streams {
			if pos[i] < len(s) {
				return true
			}
		}
		return false
	}
	for left() {
		slot := dc.order.intn(len(dc.streams))
		for len(dc.streams[slot]) == pos[slot] {
			slot = (slot + 1) % len(dc.streams)
		}
		s := dc.streams[slot]
		end := min(len(s), pos[slot]+1+dc.order.intn(8))
		for pos[slot] < end {
			ev := s[pos[slot]]
			switch ev.Kind {
			case EvFlush:
				c.Flush(slot, ev.Thread)
				pos[slot]++
			case EvDone:
				c.Done(slot, ev.Thread)
				pos[slot]++
			default:
				run := pos[slot]
				for run < end && s[run].Kind != EvFlush && s[run].Kind != EvDone {
					run++
				}
				// Feed a copy: the Checker may buffer or tap events, and the
				// Monitor is fed from the same streams.
				c.Feed(slot, append([]Event(nil), s[pos[slot]:run]...))
				pos[slot] = run
			}
		}
	}
	c.Finish()
	return c
}

// runMonitor sends the streams through a Monitor's Senders. Preloaded,
// every event is in the rings before Start, so the drain order is fixed;
// otherwise each thread's producer runs concurrently with the started
// monitor, as in a real run.
func (dc *diffCase) runMonitor(t testing.TB, cfg Config, preload bool) *Monitor {
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	send := func(slot int) {
		s := m.Sender(slot)
		if slot == diffThreads {
			s = m.Sender(-1)
		}
		for _, ev := range dc.streams[slot] {
			s.Send(ev)
		}
		s.Flush()
	}
	if preload {
		for slot := range dc.streams {
			send(slot)
		}
		m.Start()
	} else {
		m.Start()
		var wg sync.WaitGroup
		for slot := range dc.streams {
			wg.Add(1)
			go func() {
				defer wg.Done()
				send(slot)
			}()
		}
		wg.Wait()
	}
	m.Close()
	return m
}

// compareCheckerMonitor feeds one input to a started Monitor and to a
// bare Checker and requires identical violations, health and stats
// (Dropped, a front-end counter, excepted: neither drops here).
func compareCheckerMonitor(t testing.TB, data []byte, preload bool) {
	dc := decodeDiffCase(data)
	if !preload && dc.stragglers {
		return
	}
	// Queues and the gated buffer hold every stream whole: the streams
	// are at most a few dozen events a thread, well inside one drain
	// batch, so no overflow policy or forced close comes into play.
	cfg := Config{NumThreads: diffThreads, Plans: testPlans(), QueueCap: 1024}
	m := dc.runMonitor(t, cfg, preload)
	c := dc.feedChecker(t, cfg)
	mv, cv := m.Violations(), c.Violations()
	if len(mv) != 0 || len(cv) != 0 {
		if !reflect.DeepEqual(mv, cv) {
			t.Fatalf("violations differ (preload=%t):\n monitor: %v\n checker: %v\n streams: %v", preload, mv, cv, dc.streams)
		}
	}
	ms, cs := m.Stats(), c.Stats()
	ms.Dropped = 0
	if ms != cs || m.Health() != c.Health() {
		t.Fatalf("outcomes differ (preload=%t):\n monitor: %s %+v\n checker: %s %+v\n streams: %v",
			preload, m.Health(), ms, c.Health(), cs, dc.streams)
	}
}

// TestCheckerMatchesMonitor is the oracle for moving daemon sessions and
// replay from a Monitor to a Checker: on random per-thread streams with
// gated interleavings, stragglers, duplicate reports, corrupt kinds and
// thread IDs, and missing flushes and dones, a bare Checker fed the
// streams in a random interleaving reaches exactly the verdict, health
// and counters of a started Monitor fed the same streams through its
// rings — both with the rings filled before the monitor starts and with
// concurrent producers.
func TestCheckerMatchesMonitor(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	runs := 400
	if testing.Short() {
		runs = 100
	}
	for i := range runs {
		data := make([]byte, 64+rng.Intn(256))
		rng.Read(data)
		t.Run(fmt.Sprint(i), func(t *testing.T) {
			compareCheckerMonitor(t, data, true)
			compareCheckerMonitor(t, data, false)
		})
	}
}

// FuzzCheckerDifferential is TestCheckerMatchesMonitor's comparison under
// the fuzzer, seeded with FuzzMonitorEvents' corpus.
func FuzzCheckerDifferential(f *testing.F) {
	for _, seed := range monitorEventSeeds {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		compareCheckerMonitor(t, data, true)
		compareCheckerMonitor(t, data, false)
	})
}

// gateStream feeds thread 0's events up to and past its first barrier,
// then returns; thread 1 has not flushed, so thread 0 is gated.
func gateStream(c *Checker, post int) {
	c.Feed(0, []Event{branchEv(0, 1, 1, 5, true)})
	c.Flush(0, 0)
	evs := make([]Event, post)
	for k := range evs {
		evs[k] = branchEv(0, 1, uint64(100+k), 5, true)
	}
	c.Feed(0, evs)
}

// TestCheckerGatedBufferBounded: a gated thread's events wait in its
// buffer, in order, until the generation closes; a thread about to pass
// QueueCap force-closes the generation instead of growing the buffer, as
// the watchdog would — counted, degraded, and still free of false
// positives.
func TestCheckerGatedBufferBounded(t *testing.T) {
	c, err := NewChecker(Config{NumThreads: 2, Plans: testPlans(), QueueCap: 8})
	if err != nil {
		t.Fatal(err)
	}
	gateStream(c, 8) // fits exactly
	if got := len(c.held[0]); got != 8 {
		t.Fatalf("gated thread buffered %d events, want 8", got)
	}
	c.Feed(1, []Event{branchEv(1, 1, 1, 5, true)})
	c.Flush(1, 1) // closes generation 0: thread 0's buffer is released
	if got := len(c.held[0]); got != 0 || c.Stats().Events != 10 {
		t.Fatalf("after the barrier: %d buffered, %d events checked; want 0 and 10", got, c.Stats().Events)
	}
	if c.Health() != Healthy {
		t.Fatalf("a buffer within its bound degraded the checker: %s", c.Health())
	}

	c, _ = NewChecker(Config{NumThreads: 2, Plans: testPlans(), QueueCap: 8})
	gateStream(c, 9) // one past the bound
	st := c.Stats()
	if len(c.held[0]) != 0 || st.Watchdog != 1 || st.Events != 10 || c.Health() != Degraded {
		t.Fatalf("past the bound: %d buffered, %s %+v; want 0 buffered, one forced close, 10 events, degraded",
			len(c.held[0]), c.Health(), st)
	}
	// Thread 1's pre-barrier report is now stale: quarantined, never
	// mixed into the new generation.
	c.Feed(1, []Event{branchEv(1, 1, 1, 6, false)})
	c.Flush(1, 1)
	c.Done(0, 0)
	c.Done(1, 1)
	c.Finish()
	if st := c.Stats(); st.Quarantined != 1 || c.Detected() {
		t.Fatalf("stale report: %+v, detected %t; want it quarantined and no violation", st, c.Detected())
	}
}

// TestCheckerWatchdogPerInput: with no timer, the stall watchdog is
// evaluated as each input arrives; a generation stalled for the deadline
// is force-closed before the input, at the time a timer would have fired
// — and a silence of several deadlines fires it as often as a timer
// would: once per deadline while work is stuck.
func TestCheckerWatchdogPerInput(t *testing.T) {
	var now time.Time
	c, err := NewChecker(Config{NumThreads: 2, Plans: testPlans(), StallDeadline: time.Second,
		Now: func() time.Time { return now }})
	if err != nil {
		t.Fatal(err)
	}
	// Thread 0 runs two barriers ahead; thread 1 hangs.
	c.Feed(0, []Event{branchEv(0, 1, 1, 5, true)})
	c.Flush(0, 0)
	c.Feed(0, []Event{branchEv(0, 1, 2, 5, true)})
	c.Flush(0, 0)
	c.Feed(0, []Event{branchEv(0, 1, 3, 5, true)})
	now = now.Add(999 * time.Millisecond)
	c.Feed(1, nil) // an empty frame is no input
	c.Done(0, 0)   // buffered: thread 0 is gated
	if st := c.Stats(); st.Watchdog != 0 {
		t.Fatalf("watchdog fired before the deadline: %+v", st)
	}
	now = now.Add(10 * time.Second)
	c.Done(1, 1)
	c.Finish()
	st := c.Stats()
	// Fires at 1s and 2s release thread 0's two buffered generations; the
	// fire at 3s closes the last one, whose report thread 1 never sent.
	if st.Watchdog != 3 || st.Events != 3 || c.Health() != Degraded || c.Detected() {
		t.Fatalf("after a long stall: %s %+v detected %t; want three forced closes, 3 events, degraded, no violation",
			c.Health(), st, c.Detected())
	}
}

// TestCheckerPanicFailsOpen: a panic inside an input (here a faulty
// EventTap) fails the checker open — Failed, one panic counted, the
// table abandoned — and every later input is quarantined instead of
// checked; Finish still returns.
func TestCheckerPanicFailsOpen(t *testing.T) {
	dropSpare()
	n := 0
	c, err := NewChecker(Config{NumThreads: 2, Plans: testPlans(), EventTap: func(*Event) {
		if n++; n == 3 {
			panic("injected")
		}
	}})
	if err != nil {
		t.Fatal(err)
	}
	gateStream(c, 4)
	c.Feed(1, []Event{branchEv(1, 1, 1, 5, true), branchEv(1, 1, 2, 5, true)})
	c.Flush(1, 1)
	c.Done(0, 0)
	c.Done(1, 1)
	c.Finish()
	st := c.Stats()
	if c.Health() != Failed || st.Panics != 1 || c.tab != nil || len(spare) != 0 {
		t.Fatalf("after a panic: %s %+v; want failed, one panic, table abandoned", c.Health(), st)
	}
	// Everything unchecked is quarantined: thread 0's 4 buffered events,
	// thread 1's interrupted frame (2 events), its flush and both dones.
	if st.Quarantined != 4+2+3 {
		t.Fatalf("Quarantined = %d, want 9", st.Quarantined)
	}

	// A Reset checker serves the next run normally.
	if err := c.Reset(Config{NumThreads: 1, Plans: testPlans()}); err != nil {
		t.Fatal(err)
	}
	c.Feed(0, []Event{branchEv(0, 1, 1, 5, true)})
	c.Done(0, 0)
	c.Finish()
	if c.Health() != Healthy || c.Stats() != (Stats{Events: 1, Instances: 1}) {
		t.Fatalf("after Reset: %s %+v; want healthy, 1 event, 1 instance", c.Health(), c.Stats())
	}
}

package monitor

import (
	"sync"
	"testing"
	"time"
)

// FuzzMonitorEvents drives the monitor with event streams decoded from the
// fuzz input, three times per input:
//
//  1. An arbitrary stream — any kinds (including invalid ones), any thread
//     IDs (including out-of-range), any keys and interleavings, each event
//     sent through the Sender of a fuzz-chosen slot (out-of-range slots get
//     the quarantining Sender). The only per-slot contract kept is the
//     Sender's: EvDone is a slot's last event. Payloads whose thread
//     disagrees with their slot reach the monitor, which must quarantine
//     them. The monitor must neither panic nor deadlock; the watchdog
//     guarantees liveness when flush patterns leave generations open.
//  2. A lockstep-consistent stream — every thread sends the same branch
//     sequence with the same signatures, outcomes, and barrier positions,
//     through unbatched Senders. This is an error-free SPMD execution, so
//     any reported violation is a false positive and fails the fuzz target.
//  3. The same lockstep stream through Senders with a batch size derived
//     from the input. The zero-violation guarantee must hold identically:
//     batching is a pure performance feature.
func FuzzMonitorEvents(f *testing.F) {
	for _, seed := range monitorEventSeeds {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		fuzzArbitraryStream(t, data)
		fuzzLockstep(t, data, 1)
		batch := 1
		if len(data) > 0 {
			batch = int(data[0]%100) + 1
		}
		fuzzLockstep(t, data, batch)
	})
}

// monitorEventSeeds is FuzzMonitorEvents' seed corpus, shared with
// FuzzCheckerDifferential.
var monitorEventSeeds = [][]byte{
	{},
	{1, 0, 1, 0, 5, 1, 2, 1},
	{2, 0, 0, 0, 0, 0, 0, 0, 3, 1, 0, 0, 0, 0, 0, 0},
	{1, 200, 9, 9, 9, 9, 9, 9, 7, 3, 0, 0, 0, 0, 0, 0},
}

const fuzzThreads = 4

// fuzzArbitraryStream checks the liveness and no-panic properties against
// hostile input. The drop policy plus a short real-time watchdog deadline
// are the configuration a defensive deployment would use; both are needed
// for termination when the stream gates a queue forever.
func fuzzArbitraryStream(t *testing.T, data []byte) {
	m, err := New(Config{
		NumThreads:    fuzzThreads,
		Plans:         testPlans(),
		QueueCap:      32,
		MaxInstances:  64,
		Overflow:      OverflowDropNewest,
		SenderBatch:   1,
		StallDeadline: time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	m.Start()
	// senders[slot+1] for slot -1..fuzzThreads: both ends are out of range.
	senders := make([]*Sender, fuzzThreads+2)
	for i := range senders {
		senders[i] = m.Sender(i - 1)
	}
	var done [fuzzThreads + 2]bool
	n := len(data) / 8
	if n > 64 {
		n = 64
	}
	for i := 0; i < n; i++ {
		b := data[i*8 : i*8+8]
		ev := Event{
			Kind:     EventKind(b[0] % 5), // includes invalid kinds 0 and 4
			Thread:   int32(int8(b[1])),   // includes negative and out-of-range
			BranchID: int32(b[2] % 5),     // includes unknown branch IDs
			Key1:     uint64(b[3]%5) * 1000,
			Key2:     uint64(b[4] % 8),
			Sig:      uint64(b[5] % 3),
			Taken:    b[6]&1 == 1,
		}
		slot := int(b[7] % (fuzzThreads + 2))
		if done[slot] {
			continue // Sender contract: EvDone is a slot's last event
		}
		if ev.Kind == EvDone {
			done[slot] = true
		}
		senders[slot].Send(ev)
	}
	for tid := 0; tid < fuzzThreads; tid++ {
		if !done[tid+1] {
			senders[tid+1].Send(Event{Kind: EvDone, Thread: int32(tid)})
		}
	}
	m.Close()
	if got := m.QueueBacklog(); got != 0 {
		t.Fatalf("backlog = %d after Close, want 0", got)
	}
	// Violations may be genuine here (arbitrary streams can diverge); only
	// crashes, hangs, and counter corruption are failures.
	st := m.Stats()
	if st.Panics != 0 {
		t.Fatalf("monitor panicked on arbitrary input: %+v", st)
	}
}

// fuzzLockstep replays the input as an error-free SPMD execution:
// identical per-thread streams from concurrent producers, each through
// its own Sender of the given batch size, into a tiny queue under the
// blocking policy. Awkward batch sizes (1, sizes straddling barrier
// positions) are exactly where a batch could leak across a barrier —
// zero violations (the paper's hard guarantee) and a clean degradation
// ledger remain mandatory.
func fuzzLockstep(t *testing.T, data []byte, batch int) {
	m, err := New(Config{
		NumThreads:  fuzzThreads,
		Plans:       testPlans(),
		QueueCap:    16,
		SenderBatch: batch,
	})
	if err != nil {
		t.Fatal(err)
	}
	m.Start()
	type op struct {
		branch  int32
		sig     uint64
		taken   bool
		barrier bool
	}
	n := len(data) / 4
	if n > 100 {
		n = 100
	}
	ops := make([]op, 0, n)
	for i := 0; i < n; i++ {
		b := data[i*4 : i*4+4]
		ops = append(ops, op{
			branch:  int32(b[0]%3) + 1, // known plans only: this is a valid run
			sig:     uint64(b[2] % 3),
			taken:   b[2]&0x80 != 0,
			barrier: b[3]%5 == 0,
		})
	}
	var wg sync.WaitGroup
	for tid := int32(0); tid < fuzzThreads; tid++ {
		wg.Add(1)
		go func(tid int32) {
			defer wg.Done()
			s := m.Sender(int(tid))
			for i, o := range ops {
				// Key2 is the dynamic-instance key; a valid execution never
				// reuses it for the same branch within a generation (the
				// check layer flags same-thread duplicates), so it is the
				// op index.
				s.Send(Event{Kind: EvBranch, Thread: tid, BranchID: o.branch,
					Key1: uint64(o.branch) * 1000, Key2: uint64(i), Sig: o.sig, Taken: o.taken})
				if o.barrier {
					s.Send(Event{Kind: EvFlush, Thread: tid})
				}
			}
			s.Send(Event{Kind: EvDone, Thread: tid})
		}(tid)
	}
	wg.Wait()
	m.Close()
	if m.Detected() {
		t.Fatalf("false positive on a lockstep stream (batch=%d): %v", batch, m.Violations())
	}
	if st := m.Stats(); st.Quarantined != 0 || st.Dropped != 0 || st.Panics != 0 {
		t.Fatalf("clean lockstep run degraded (batch=%d): %+v", batch, st)
	}
}

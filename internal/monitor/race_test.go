package monitor

import (
	"sync"
	"testing"

	"blockwatch/internal/core"
)

// plansForStress is a minimal one-branch shared check table; all stress
// events agree per instance, so the runs must stay violation-free.
func plansForStress() map[int]*core.CheckPlan {
	return map[int]*core.CheckPlan{1: sharedPlan()}
}

// stressMonitor drives a Monitor with nthreads concurrent producers — one
// goroutine per program thread, matching the monitor's per-thread SPSC
// front-end contract — plus concurrent Detected() observers, then closes
// it. Under `go test -race` this exercises the queue publication, the
// gating/flush logic, and the Close handshake.
func stressMonitor(t *testing.T, nthreads, branchesPerGen, gens int) {
	t.Helper()
	m, err := New(Config{
		NumThreads: nthreads,
		Plans:      plansForStress(),
		QueueCap:   256, // small: make producers spin on full queues
	})
	if err != nil {
		t.Fatal(err)
	}
	m.Start()

	var wg sync.WaitGroup
	stop := make(chan struct{})
	// Racy-but-safe observers of the detection flag.
	var obs sync.WaitGroup
	for i := 0; i < 2; i++ {
		obs.Add(1)
		go func() {
			defer obs.Done()
			for {
				select {
				case <-stop:
					return
				default:
					_ = m.Detected()
				}
			}
		}()
	}
	for tid := 0; tid < nthreads; tid++ {
		wg.Add(1)
		go func(tid int) {
			defer wg.Done()
			s := m.Sender(tid)
			for gen := 0; gen < gens; gen++ {
				for b := 0; b < branchesPerGen; b++ {
					// All threads agree on signature and outcome: the
					// stress must stay violation-free so any detection is
					// itself a bug signal.
					s.Send(Event{
						Kind:     EvBranch,
						Thread:   int32(tid),
						BranchID: 1,
						Key1:     uint64(b) + 1,
						Key2:     uint64(gen),
						Sig:      uint64(b) * 7,
						Taken:    b%2 == 0,
					})
				}
				s.Send(Event{Kind: EvFlush, Thread: int32(tid)})
			}
			s.Send(Event{Kind: EvDone, Thread: int32(tid)})
		}(tid)
	}
	wg.Wait()
	m.Close()
	close(stop)
	obs.Wait()

	if m.Detected() {
		t.Fatalf("stress produced violations on consistent events: %v", m.Violations())
	}
}

// TestMonitorSendCloseStressFlat: flat monitor under concurrent
// producers. Sized to finish in well under 5s with -race.
func TestMonitorSendCloseStressFlat(t *testing.T) {
	stressMonitor(t, 8, 400, 25)
}

// TestMonitorCloseWhileProducersDraining closes the monitor immediately
// after the last Send returns, repeatedly, to chase Close/loop races.
func TestMonitorCloseWhileProducersDraining(t *testing.T) {
	for round := 0; round < 50; round++ {
		m, err := New(Config{NumThreads: 4, Plans: plansForStress(), QueueCap: 64})
		if err != nil {
			t.Fatal(err)
		}
		in := newFeed(m, 4)
		m.Start()
		var wg sync.WaitGroup
		for tid := 0; tid < 4; tid++ {
			wg.Add(1)
			go func(tid int) {
				defer wg.Done()
				for b := 0; b < 200; b++ {
					in.Send(Event{Kind: EvBranch, Thread: int32(tid), BranchID: 1,
						Key1: uint64(b) + 1, Key2: 0, Sig: 3, Taken: true})
				}
				in.Send(Event{Kind: EvDone, Thread: int32(tid)})
			}(tid)
		}
		wg.Wait()
		m.Close()
		if m.Detected() {
			t.Fatalf("round %d: violations on consistent events: %v", round, m.Violations())
		}
	}
}

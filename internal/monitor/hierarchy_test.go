package monitor

import (
	"sync"
	"testing"
)

func TestHierarchicalCleanRun(t *testing.T) {
	h, err := NewHierarchical(Config{NumThreads: 8, Plans: testPlans()}, 4)
	if err != nil {
		t.Fatal(err)
	}
	in := newFeed(h, 8)
	h.Start()
	var wg sync.WaitGroup
	for tid := int32(0); tid < 8; tid++ {
		tid := tid
		wg.Add(1)
		go func() {
			defer wg.Done()
			for iter := uint64(0); iter < 50; iter++ {
				in.Send(branchEv(tid, 1, iter, 9, iter%3 == 0))
			}
			in.Send(Event{Kind: EvDone, Thread: tid})
		}()
	}
	wg.Wait()
	h.Close()
	if h.Detected() {
		t.Fatalf("false positive: %v", h.Violations())
	}
}

func TestHierarchicalDetectsWithinGroup(t *testing.T) {
	// Threads 0 and 4 land in the same group (round-robin over 4 groups
	// of 8 threads); a divergence between them must be caught group-
	// locally.
	h, err := NewHierarchical(Config{NumThreads: 8, Plans: testPlans()}, 4)
	if err != nil {
		t.Fatal(err)
	}
	in := newFeed(h, 8)
	h.Start()
	for tid := int32(0); tid < 8; tid++ {
		taken := tid != 4
		in.Send(branchEv(tid, 1, 7, 9, taken))
		in.Send(Event{Kind: EvDone, Thread: tid})
	}
	h.Close()
	if !h.Detected() {
		t.Fatal("within-group divergence not detected")
	}
}

func TestHierarchicalDetectsAcrossGroups(t *testing.T) {
	// With 4 groups of 2 threads each, make exactly one thread of one
	// group diverge while its group-mate never reports that instance: the
	// violation is only visible at the root merge.
	h, err := NewHierarchical(Config{NumThreads: 8, Plans: testPlans()}, 4)
	if err != nil {
		t.Fatal(err)
	}
	in := newFeed(h, 8)
	h.Start()
	for tid := int32(0); tid < 8; tid++ {
		if tid%4 == 1 {
			continue // group 1 threads stay silent on this branch
		}
		taken := tid != 2 // thread 2 diverges; its group-mate 6 agrees with others
		_ = taken
		in.Send(branchEv(tid, 1, 7, 9, tid == 2))
	}
	for tid := int32(0); tid < 8; tid++ {
		in.Send(Event{Kind: EvDone, Thread: tid})
	}
	h.Close()
	if !h.Detected() {
		t.Fatal("cross-group divergence not detected at root")
	}
}

func TestHierarchicalBarrierGenerations(t *testing.T) {
	h, err := NewHierarchical(Config{NumThreads: 4, Plans: testPlans()}, 2)
	if err != nil {
		t.Fatal(err)
	}
	in := newFeed(h, 4)
	h.Start()
	// Epoch 1 consistent; epoch 2 reuses the same keys with different
	// data — must not be confused with epoch 1 at the root.
	for tid := int32(0); tid < 4; tid++ {
		in.Send(branchEv(tid, 1, 3, 5, true))
		in.Send(Event{Kind: EvFlush, Thread: tid})
	}
	for tid := int32(0); tid < 4; tid++ {
		in.Send(branchEv(tid, 1, 3, 6, false))
		in.Send(Event{Kind: EvDone, Thread: tid})
	}
	h.Close()
	if h.Detected() {
		t.Fatalf("cross-epoch false positive: %v", h.Violations())
	}
}

func TestHierarchicalGroupCounts(t *testing.T) {
	if _, err := NewHierarchical(Config{NumThreads: 4, Plans: testPlans()}, 0); err == nil {
		t.Error("0 groups accepted")
	}
	if _, err := NewHierarchical(Config{NumThreads: 4, Plans: testPlans()}, 5); err == nil {
		t.Error("more groups than threads accepted")
	}
	if _, err := NewHierarchical(Config{NumThreads: 2}, 1); err == nil {
		t.Error("nil plans accepted")
	}
	// One group degenerates to the flat monitor's behaviour.
	h, err := NewHierarchical(Config{NumThreads: 2, Plans: testPlans()}, 1)
	if err != nil {
		t.Fatal(err)
	}
	in := newFeed(h, 2)
	h.Start()
	in.Send(branchEv(0, 1, 1, 5, true))
	in.Send(branchEv(1, 1, 1, 5, false))
	in.Send(Event{Kind: EvDone, Thread: 0})
	in.Send(Event{Kind: EvDone, Thread: 1})
	h.Close()
	if !h.Detected() {
		t.Fatal("single-group hierarchy missed a divergence")
	}
}

func TestHierarchicalCloseWithoutStart(t *testing.T) {
	h, err := NewHierarchical(Config{NumThreads: 2, Plans: testPlans(), SenderBatch: 1}, 2)
	if err != nil {
		t.Fatal(err)
	}
	in := newFeed(h, 2)
	in.Send(branchEv(0, 1, 1, 5, true))
	in.Send(branchEv(1, 1, 1, 5, false))
	h.Close()
	if !h.Detected() {
		t.Fatal("synchronous hierarchical drain missed the violation")
	}
}

func TestHierarchicalCloseUnblocksMissingDone(t *testing.T) {
	// Thread 1 never sends Done (e.g. it crashed under fault injection):
	// Close must still terminate and check what arrived.
	h, err := NewHierarchical(Config{NumThreads: 4, Plans: testPlans(), SenderBatch: 1}, 2)
	if err != nil {
		t.Fatal(err)
	}
	in := newFeed(h, 4)
	h.Start()
	in.Send(branchEv(0, 1, 1, 5, true))
	in.Send(branchEv(1, 1, 1, 5, false))
	in.Send(Event{Kind: EvDone, Thread: 0})
	in.Send(Event{Kind: EvDone, Thread: 2})
	in.Send(Event{Kind: EvDone, Thread: 3})
	h.Close() // must not hang
	if !h.Detected() {
		t.Fatal("violation missed after forced close")
	}
}

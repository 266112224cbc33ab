package inject

import (
	"errors"
	"reflect"
	"testing"

	"blockwatch/internal/monitor"
)

// TestEventCampaignRuns: an event-path campaign runs end to end, returns a
// DetectorTally, and — because the program itself is never touched — all
// activated faults resolve to Detected (a detector-induced false alarm) or
// Benign (masked/quarantined), never Crash, Hang, or SDC.
func TestEventCampaignRuns(t *testing.T) {
	m, plans := compileTest(t)
	c := Campaign{
		Module: m, Plans: plans, Threads: 4, Faults: 80,
		Type: EventBit, Seed: 11, Workers: 4,
	}
	res, err := c.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Detector == nil {
		t.Fatal("event-path campaign returned no DetectorTally")
	}
	for _, bad := range []Outcome{Crash, Hang, SDC} {
		if n := res.Tally.Counts[bad]; n != 0 {
			t.Errorf("event-path fault produced %d %s outcomes; the program is never touched", n, bad)
		}
	}
	if res.Tally.Activated == 0 {
		t.Fatal("no event-path fault activated; sampling space broken?")
	}
	// Every detection is a detector-fault detection: the program output
	// always matches golden.
	if res.Detector.ProgramDetections != 0 {
		t.Errorf("ProgramDetections = %d, want 0 (event-path faults cannot corrupt the program)",
			res.Detector.ProgramDetections)
	}
	if res.Detector.DetectorDetections != res.Tally.Counts[Detected] {
		t.Errorf("DetectorDetections = %d, Detected outcomes = %d",
			res.Detector.DetectorDetections, res.Tally.Counts[Detected])
	}
	// Thread-field and branch-ID corruptions are recognized and absorbed,
	// so some runs must show quarantine activity across 80 samples.
	if res.Detector.Quarantined == 0 {
		t.Error("no run quarantined an event; validation path not exercised")
	}
}

// TestEventCampaignWorkerCountInvariance extends PR 1's determinism
// guarantee to the event-path model: identical tallies and detector
// classification at every worker count.
func TestEventCampaignWorkerCountInvariance(t *testing.T) {
	m, plans := compileTest(t)
	for _, seed := range []int64{1, 7, 42} {
		c := Campaign{
			Module: m, Plans: plans, Threads: 4, Faults: 60,
			Type: EventBit, Seed: seed, Workers: 1,
		}
		seq, err := c.Run()
		if err != nil {
			t.Fatalf("seed %d sequential: %v", seed, err)
		}
		c.Workers = 8
		par, err := c.Run()
		if err != nil {
			t.Fatalf("seed %d parallel: %v", seed, err)
		}
		if !reflect.DeepEqual(seq.Tally, par.Tally) {
			t.Errorf("seed %d: tally differs across worker counts:\nworkers=1: %+v\nworkers=8: %+v",
				seed, seq.Tally, par.Tally)
		}
		if !reflect.DeepEqual(seq.Detector, par.Detector) {
			t.Errorf("seed %d: detector tally differs across worker counts:\nworkers=1: %+v\nworkers=8: %+v",
				seed, seq.Detector, par.Detector)
		}
		if seq.FirstDetected != par.FirstDetected ||
			seq.FirstDetectedFault != par.FirstDetectedFault {
			t.Errorf("seed %d: first detection differs: (%d, %+v) vs (%d, %+v)",
				seed, seq.FirstDetected, seq.FirstDetectedFault,
				par.FirstDetected, par.FirstDetectedFault)
		}
	}
}

// TestEventCampaignConfigErrors pins the configuration contract: plans are
// required (there is no unprotected event path).
func TestEventCampaignConfigErrors(t *testing.T) {
	m, _ := compileTest(t)
	if _, err := (Campaign{Module: m, Threads: 2, Faults: 5, Type: EventBit}).Run(); !errors.Is(err, ErrEventNeedsPlans) {
		t.Errorf("no plans: err = %v, want ErrEventNeedsPlans", err)
	}
}

// TestFlipEventBit pins the field widths: 64-bit fields use the full bit
// range, 32-bit fields mask to 31, and Taken inverts for any bit.
func TestFlipEventBit(t *testing.T) {
	ev := monitor.Event{Kind: monitor.EvBranch}
	FlipEventBit(&ev, FieldSig, 63)
	if ev.Sig != 1<<63 {
		t.Errorf("Sig = %x, want bit 63 set", ev.Sig)
	}
	FlipEventBit(&ev, FieldKey1, 64) // masks to bit 0
	if ev.Key1 != 1 {
		t.Errorf("Key1 = %x, want bit 0 set", ev.Key1)
	}
	FlipEventBit(&ev, FieldThread, 33) // masks to bit 1
	if ev.Thread != 2 {
		t.Errorf("Thread = %d, want 2", ev.Thread)
	}
	FlipEventBit(&ev, FieldBranchID, 31)
	if ev.BranchID != int32(-1<<31) {
		t.Errorf("BranchID = %d, want sign bit set", ev.BranchID)
	}
	FlipEventBit(&ev, FieldTaken, 17)
	if !ev.Taken {
		t.Error("Taken not inverted")
	}
	if ev.Kind != monitor.EvBranch {
		t.Error("Kind must never be corrupted")
	}
}

// TestTapTargetsExactEvent: the tap corrupts exactly the Seq-th branch
// event of the targeted thread and nothing else.
func TestTapTargetsExactEvent(t *testing.T) {
	tap := NewTap(Fault{Type: EventBit, Thread: 1, Seq: 2, Field: FieldSig, Bit: 0})
	evs := []monitor.Event{
		{Kind: monitor.EvBranch, Thread: 0, Sig: 10},
		{Kind: monitor.EvBranch, Thread: 1, Sig: 20},
		{Kind: monitor.EvFlush, Thread: 1},
		{Kind: monitor.EvBranch, Thread: 1, Sig: 30},
		{Kind: monitor.EvBranch, Thread: 1, Sig: 40},
	}
	for i := range evs {
		tap.Corrupt(&evs[i])
	}
	want := []uint64{10, 20, 0, 31, 40}
	for i, ev := range evs {
		if ev.Kind == monitor.EvFlush {
			continue
		}
		if ev.Sig != want[i] {
			t.Errorf("event %d: Sig = %d, want %d", i, ev.Sig, want[i])
		}
	}
	if !tap.Activated() {
		t.Error("tap did not report activation")
	}
}

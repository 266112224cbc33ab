package inject

import (
	"slices"
	"testing"

	"blockwatch/internal/core"
	"blockwatch/internal/interp"
	"blockwatch/internal/metrics"
	"blockwatch/internal/splash"
)

// TestClassifyDetectedFirst: a run the monitor flagged is Detected
// whatever else went wrong in it. Campaign.Run stops a faulty run at its
// first detected violation, and relies on this precedence: the stopped
// run's threads trap TrapAborted (a hang) and its output is cut short
// (an SDC), yet it must classify as it would have at its end.
func TestClassifyDetectedFirst(t *testing.T) {
	golden := []interp.Value{1, 2, 3}
	aborted := []*interp.Trap{{Kind: interp.TrapAborted}, {Kind: interp.TrapAborted}}
	for _, tc := range []struct {
		name string
		res  interp.Result
		want Outcome
	}{
		{"detected crash", interp.Result{Detected: true, Traps: []*interp.Trap{{Kind: interp.TrapOOB}, nil}}, Detected},
		{"detected hang", interp.Result{Detected: true, Traps: []*interp.Trap{nil, {Kind: interp.TrapStepLimit}}}, Detected},
		{"detected stop", interp.Result{Detected: true, Traps: aborted}, Detected},
		{"detected sdc", interp.Result{Detected: true, Output: []interp.Value{1, 2}}, Detected},
		{"detected benign", interp.Result{Detected: true, Output: golden}, Detected},
		{"crash", interp.Result{Traps: []*interp.Trap{{Kind: interp.TrapDivZero}}}, Crash},
		{"hang", interp.Result{Traps: aborted}, Hang},
		{"sdc", interp.Result{Output: []interp.Value{1, 2}}, SDC},
		{"benign", interp.Result{Output: golden}, Benign},
	} {
		if got := classify(&tc.res, golden, extrasFrom(&tc.res, golden)); got != tc.want {
			t.Errorf("%s: classified %s, want %s", tc.name, got, tc.want)
		}
	}
}

// kernelCampaign is the campaign a bwperf `campaign` op runs on kernel
// k: ten branch flips at two threads, seed 1000+k, protected, one
// worker.
func kernelCampaign(t *testing.T, k int, name string) Campaign {
	t.Helper()
	mod, err := splash.Load(name)
	if err != nil {
		t.Fatal(err)
	}
	a, err := core.Analyze(mod, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return Campaign{Module: mod, Plans: a.Plans, Threads: 2, Faults: 10, Type: BranchFlip,
		Seed: int64(1000 + k), Workers: 1, Metrics: metrics.NewRegistry()}
}

// eventsSent is the number of events, branch and control, the
// campaign's monitors ingested.
func eventsSent(c Campaign) uint64 {
	n, _ := c.Metrics.Snapshot().Counter("bw_monitor_events_total")
	return n
}

// TestStopKeepsOutcomes: every fault of the bwperf campaign lists has
// the same outcome when Run stops its run at the first detected
// violation as when the run goes to its end, and the stops cut the
// events the monitors ingest. (A kernel whose violations surface only at
// its final check, water-nsquared's here, has nothing to cut.)
func TestStopKeepsOutcomes(t *testing.T) {
	var withStops, toEnd uint64
	for k, name := range splash.Names() {
		stopped := kernelCampaign(t, k, name)
		var got []Outcome
		if _, err := stopped.RunWith(func(f Fault, stepLimit uint64, golden []interp.Value) (Outcome, error) {
			out := stopped.runOne(f, golden, stepLimit)
			got = append(got, out)
			return out, nil
		}); err != nil {
			t.Fatal(err)
		}

		full := kernelCampaign(t, k, name)
		var want []Outcome
		if _, err := full.RunWith(func(f Fault, stepLimit uint64, golden []interp.Value) (Outcome, error) {
			ij := NewSingle(f)
			res, err := full.run(interp.Options{Threads: full.Threads, Mode: interp.MonitorActive,
				Plans: full.Plans, Fault: ij, StepLimit: stepLimit}, nil, nil)
			out := Crash
			switch {
			case err != nil:
			case !ij.Activated():
				out = NotActivated
			default:
				out = classify(res, golden, extrasFrom(res, golden))
			}
			want = append(want, out)
			return out, nil
		}); err != nil {
			t.Fatal(err)
		}

		if !slices.Equal(got, want) {
			t.Errorf("%s: outcomes with stops %v, run to the end %v", name, got, want)
		}
		withStops += eventsSent(stopped)
		toEnd += eventsSent(full)
	}
	if withStops >= toEnd {
		t.Errorf("the campaigns' monitors ingested %d events with stops, %d without: nothing stopped", withStops, toEnd)
	}
}

// TestEventCampaignNeverStops: an event-path campaign classifies the
// detector from the whole run (DetectorTally compares the program's
// output with the golden run's), so none of its runs stops early: every
// run, golden and faulty, feeds the monitor the program's full event
// stream, and the tally is the one recorded before stops existed. On
// fft, where event-path violations surface mid-run, stopped runs would
// count cut-short outputs as ProgramDetections.
func TestEventCampaignNeverStops(t *testing.T) {
	c := kernelCampaign(t, slices.Index(splash.Names(), "fft"), "fft")
	c.Type, c.Faults = EventBit, 20
	res, err := c.Run()
	if err != nil {
		t.Fatal(err)
	}
	one := c
	one.Metrics = metrics.NewRegistry()
	if _, err := one.run(interp.Options{Threads: c.Threads, Mode: interp.MonitorActive, Plans: c.Plans}, nil, nil); err != nil {
		t.Fatal(err)
	}
	perRun := eventsSent(one)
	if got, want := eventsSent(c), uint64(c.Faults+1)*perRun; got != want {
		t.Errorf("the campaign's monitors ingested %d events, want %d (%d runs of %d)", got, want, c.Faults+1, perRun)
	}
	want := DetectorTally{DetectorDetections: 9, Quarantined: 3, Degraded: 3}
	if *res.Detector != want {
		t.Errorf("DetectorTally = %+v, want %+v", *res.Detector, want)
	}
}

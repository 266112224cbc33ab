package harness

import (
	"strings"
	"testing"
)

// TestExperimentRegistry pins the registry shape the CLI and docs
// generator both derive from: stable ids in display order, unique,
// each with a description and a runner.
func TestExperimentRegistry(t *testing.T) {
	want := []string{
		"tables", "table3", "table4", "table5", "fig6", "fig7", "fig8", "fig9",
		"falsepos", "duplication", "ablation", "nestsweep",
		"detectorfault", "netfault",
	}
	got := ExperimentIDs()
	if strings.Join(got, " ") != strings.Join(want, " ") {
		t.Fatalf("ExperimentIDs() = %v, want %v", got, want)
	}
	for _, e := range Experiments() {
		if e.Desc == "" || e.Run == nil {
			t.Errorf("experiment %q missing desc or runner", e.ID)
		}
	}
	if _, ok := FindExperiment("netfault"); !ok {
		t.Error("FindExperiment lost netfault")
	}
	if _, ok := FindExperiment("nope"); ok {
		t.Error("FindExperiment invented an experiment")
	}
}

// TestRecordsConverters spot-checks the point-to-record mapping on
// synthetic grids (axes in Config, outcomes in Values/Counters).
func TestRecordsConverters(t *testing.T) {
	nf := NetFaultRecords([]NetFaultPoint{{
		Program: "fft", Transport: "unix", Injected: 8, Fired: 6, Absorbed: 4, Recovered: 1, Sealed: 1,
	}})
	if nf[0].Counters["injected"] != 8 || nf[0].Config["kernel"] != "fft" {
		t.Errorf("netfault record = %+v", nf[0])
	}

	df := DetectorFaultRecords([]DetectorFaultRow{{Program: "lu", Threads: 4, Injected: 30, Benign: 28}})
	if df[0].Key() != "detectorfault{kernel=lu,threads=4}" || df[0].Counters["benign"] != 28 {
		t.Errorf("detectorfault record = %+v", df[0])
	}
}

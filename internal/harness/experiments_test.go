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
		"detectorfault", "throughput", "remote", "netfault", "ingest",
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
	if _, ok := FindExperiment("throughput"); !ok {
		t.Error("FindExperiment lost throughput")
	}
	if _, ok := FindExperiment("nope"); ok {
		t.Error("FindExperiment invented an experiment")
	}
}

// TestWireDecodeRecord pins the deterministic CI gate cell: the pooled
// decode path allocates exactly zero per frame on any machine.
func TestWireDecodeRecord(t *testing.T) {
	rec, err := wireDecodeRecord()
	if err != nil {
		t.Fatal(err)
	}
	if rec.Experiment != "ingest" || rec.Config["path"] != "wire-decode" {
		t.Fatalf("record identity = %+v", rec)
	}
	if got := rec.Values["allocs/op"]; got != 0 {
		t.Errorf("pooled decode allocs/op = %v, want 0", got)
	}
	if rec.Values["ns/op"] <= 0 {
		t.Errorf("ns/op = %v, want > 0", rec.Values["ns/op"])
	}
}

// TestRecordsConverters spot-checks the point-to-record mapping on
// synthetic grids (axes in Config, outcomes in Values/Counters).
func TestRecordsConverters(t *testing.T) {
	tp := ThroughputRecords([]ThroughputPoint{{
		Producers: 4, SenderBatch: 1, Events: 1000, Elapsed: 1e6,
	}})
	if len(tp) != 1 || tp[0].Key() != "throughput{batch=1,mode=batch}" {
		t.Errorf("throughput record = %+v", tp)
	}
	if tp[0].Values["ns/op"] != 1000 {
		t.Errorf("throughput ns/op = %v, want 1000", tp[0].Values["ns/op"])
	}

	ir := IngestRecords([]IngestPoint{{
		Transport: "tcp", Sessions: 2, Events: 100, Elapsed: 1e6, RxFrames: 5, BufGrows: 1, BufBytes: 4096,
	}})
	if ir[0].Key() != "ingest{sessions=2,transport=tcp}" {
		t.Errorf("ingest key = %q", ir[0].Key())
	}
	if ir[0].Counters["bw_wire_decode_buf_grows_total"] != 1 {
		t.Errorf("ingest counters = %+v", ir[0].Counters)
	}

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

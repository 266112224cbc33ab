package main

import (
	"bytes"
	"strings"
	"testing"

	"blockwatch/internal/benchstore"
)

// TestRunStaticTables exercises the cheap static experiments end to end.
func TestRunStaticTables(t *testing.T) {
	var out, errb bytes.Buffer
	if err := run([]string{"-exp", "tables", "-q"}, &out, &errb); err != nil {
		t.Fatalf("run: %v", err)
	}
	if out.Len() == 0 {
		t.Fatal("tables experiment produced no output")
	}
	if !strings.Contains(errb.String(), "1 experiment(s)") {
		t.Errorf("missing completion summary:\n%s", errb.String())
	}
}

// TestRunSmallCampaign runs the Figure 8 reproduction at a tiny fault
// count with an explicit worker count.
func TestRunSmallCampaign(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign experiment in -short mode")
	}
	var out, errb bytes.Buffer
	args := []string{"-exp", "table5", "-faults", "5", "-workers", "2", "-q"}
	if err := run(args, &out, &errb); err != nil {
		t.Fatalf("run: %v", err)
	}
	if !strings.Contains(out.String(), "Table V") {
		t.Errorf("missing Table V output:\n%s", out.String())
	}
}

func TestRunUnknownExperiment(t *testing.T) {
	var out, errb bytes.Buffer
	err := run([]string{"-exp", "nope", "-q"}, &out, &errb)
	if err == nil {
		t.Fatal("expected error for unknown experiment id")
	}
	// The suggestion list is registry-derived, so every id shows up.
	for _, id := range []string{"nestsweep", "netfault", "all"} {
		if !strings.Contains(err.Error(), id) {
			t.Errorf("error %q does not suggest %q", err, id)
		}
	}
}

// TestRunJSONArtifact drives the -json path: a record-emitting campaign
// experiment writes a schema-valid artifact that compares clean against
// itself and trips the gate against a head that lost one of its records.
func TestRunJSONArtifact(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign experiment in -short mode")
	}
	dir := t.TempDir()
	art := dir + "/BENCH_detectorfault.json"
	var out, errb bytes.Buffer
	if err := run([]string{"-exp", "detectorfault", "-faults", "8", "-q", "-json", art}, &out, &errb); err != nil {
		t.Fatalf("run -json: %v\n%s", err, errb.String())
	}
	f, err := benchstore.ReadFile(art)
	if err != nil {
		t.Fatalf("artifact did not validate: %v", err)
	}
	if len(f.Records) < 2 {
		t.Fatalf("artifact holds %d record(s), want one per kernel: %+v", len(f.Records), f.Records)
	}
	for _, r := range f.Records {
		if r.Experiment != "detectorfault" || r.Counters["injected"] == 0 {
			t.Errorf("record %s = %+v, want a detectorfault cell with injected faults", r.Key(), r)
		}
	}

	// Identical artifacts compare clean (exit zero).
	out.Reset()
	if err := run([]string{"compare", "-base", art, "-head", art}, &out, &errb); err != nil {
		t.Fatalf("self-compare failed: %v\n%s", err, out.String())
	}

	// A head that lost a record fails the gate, also in -no-time mode:
	// record structure gates on any machine.
	lost := dir + "/BENCH_lost.json"
	f.Records = f.Records[1:]
	if err := f.WriteFile(lost); err != nil {
		t.Fatal(err)
	}
	for _, extra := range [][]string{nil, {"-no-time"}} {
		out.Reset()
		args := append([]string{"compare", "-base", art, "-head", lost}, extra...)
		if err := run(args, &out, &errb); err == nil {
			t.Fatalf("%v: a lost record passed compare:\n%s", extra, out.String())
		}
		if !strings.Contains(out.String(), "MISSING") {
			t.Errorf("%v: delta table does not flag the lost record:\n%s", extra, out.String())
		}
	}
}

func TestCompareUsageErrors(t *testing.T) {
	var out, errb bytes.Buffer
	if err := run([]string{"compare"}, &out, &errb); err == nil {
		t.Error("compare without -base/-head should fail")
	}
	if err := run([]string{"compare", "-base", "nope.json", "-head", "nope.json"}, &out, &errb); err == nil {
		t.Error("compare with missing files should fail")
	}
}

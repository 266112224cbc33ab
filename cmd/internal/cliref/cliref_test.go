package cliref

import (
	"flag"
	"io"
	"strings"
	"testing"
)

// TestCommands pins the reference's structural invariants: all seven
// tools present in display order, unique names, every section buildable
// with a usable flag set.
func TestCommands(t *testing.T) {
	want := []string{"bwrun", "bwbench", "bwinject", "bwmonitord", "bwtrace", "bwc", "bwgen"}
	cmds := Commands()
	if len(cmds) != len(want) {
		t.Fatalf("%d commands, want %d", len(cmds), len(want))
	}
	for i, c := range cmds {
		if c.Name != want[i] {
			t.Errorf("command %d = %q, want %q", i, c.Name, want[i])
		}
		if c.Summary == "" || c.Description == "" {
			t.Errorf("%s: missing summary or description", c.Name)
		}
		if len(c.Sections) == 0 {
			t.Errorf("%s: no sections", c.Name)
		}
		for _, s := range c.Sections {
			if s.Usage == "" {
				t.Errorf("%s %s: missing usage line", c.Name, s.Name)
			}
			if s.Flags == nil {
				continue
			}
			fs := s.Flags(io.Discard)
			if fs == nil {
				t.Errorf("%s %s: Flags() returned nil", c.Name, s.Name)
			}
		}
	}
}

// TestFlagSetsParse proves the constructors bind their Opts: parsing a
// flag changes the struct the binary reads.
func TestFlagSetsParse(t *testing.T) {
	fs, o := RunFlags(io.Discard)
	if err := fs.Parse([]string{"-threads", "8", "-protect", "-remote", "a:1"}); err != nil {
		t.Fatal(err)
	}
	if o.Threads != 8 || !o.Protect || o.Remote != "a:1" {
		t.Errorf("RunOpts = %+v", o)
	}

	bfs, b := BenchFlags(io.Discard)
	if err := bfs.Parse([]string{"-exp", "ingest", "-json", "out.json"}); err != nil {
		t.Fatal(err)
	}
	if b.Exp != "ingest" || b.JSON != "out.json" {
		t.Errorf("BenchOpts = %+v", b)
	}
	// The -exp help text is registry-derived: nestsweep regressed out of
	// it once, so pin a few ids.
	expUsage := bfs.Lookup("exp").Usage
	for _, id := range []string{"nestsweep", "netfault", "all"} {
		if !strings.Contains(expUsage, id) {
			t.Errorf("-exp usage %q missing %q", expUsage, id)
		}
	}

	cfs, c := BenchCompareFlags(io.Discard)
	if err := cfs.Parse([]string{"-base", "a.json", "-head", "b.json", "-no-time"}); err != nil {
		t.Fatal(err)
	}
	if c.Base != "a.json" || c.Head != "b.json" || !c.NoTime {
		t.Errorf("BenchCompareOpts = %+v", c)
	}
}

// TestFlagSetsContinueOnError pins the parse idiom the binaries rely
// on: bad flags return an error instead of exiting the process.
func TestFlagSetsContinueOnError(t *testing.T) {
	for _, c := range Commands() {
		for _, s := range c.Sections {
			if s.Flags == nil {
				continue
			}
			fs := s.Flags(io.Discard)
			if fs.ErrorHandling() != flag.ContinueOnError {
				t.Errorf("%s %s: error handling = %v", c.Name, s.Name, fs.ErrorHandling())
			}
			if err := fs.Parse([]string{"-definitely-not-a-flag"}); err == nil {
				t.Errorf("%s %s: unknown flag did not error", c.Name, s.Name)
			}
		}
	}
}

package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestCLIMarkdown sanity-checks the generated reference: every tool
// gets a heading, the index links resolve, and flag rows survive.
func TestCLIMarkdown(t *testing.T) {
	md := cliMarkdown()
	for _, tool := range []string{"bwrun", "bwbench", "bwinject", "bwmonitord", "bwtrace", "bwc", "bwgen"} {
		if !strings.Contains(md, "## "+tool+"\n") {
			t.Errorf("missing section for %s", tool)
		}
		if !strings.Contains(md, "["+tool+"](#"+tool+")") {
			t.Errorf("missing index link for %s", tool)
		}
	}
	for _, flag := range []string{"`-exp`", "`-no-time`", "`-watchdog`", "`-transport`"} {
		if !strings.Contains(md, "| "+flag+" |") {
			t.Errorf("missing flag row %s", flag)
		}
	}
	if strings.Contains(md, "### bwbench compare") == false {
		t.Error("missing bwbench compare subsection")
	}
}

// TestExperimentTable pins that the README block is registry-derived:
// the once-dropped nestsweep id must be present, and the campaigns that
// emit benchstore records are marked as record emitters.
func TestExperimentTable(t *testing.T) {
	tbl := experimentTable()
	for _, id := range []string{"nestsweep", "tables", "detectorfault", "netfault"} {
		if !strings.Contains(tbl, "| `"+id+"` |") {
			t.Errorf("experiment table missing %q:\n%s", id, tbl)
		}
	}
	if !strings.Contains(tbl, "| `detectorfault` | `-json` |") {
		t.Error("detectorfault row not marked as a -json record emitter")
	}
	if !strings.Contains(tbl, "| `tables` | — |") {
		t.Error("tables row should not be marked as a record emitter")
	}
}

func TestPatchFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "f.md")
	content := "head\n<!-- generated:x:begin -->\nold\n<!-- generated:x:end -->\ntail\n"
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := patchFile(path, "x", "new\n")
	if err != nil {
		t.Fatal(err)
	}
	want := "head\n<!-- generated:x:begin -->\nnew\n<!-- generated:x:end -->\ntail\n"
	if got != want {
		t.Errorf("patched = %q, want %q", got, want)
	}
	// Patching is idempotent: re-patching the result is a no-op.
	if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
		t.Fatal(err)
	}
	again, err := patchFile(path, "x", "new\n")
	if err != nil {
		t.Fatal(err)
	}
	if again != got {
		t.Error("re-patching changed the content")
	}
	if _, err := patchFile(path, "missing", "body"); err == nil {
		t.Error("missing markers did not error")
	}
}

func TestSlugify(t *testing.T) {
	cases := map[string]string{
		"CLI reference":                       "cli-reference",
		"`bwbench` experiments":               "bwbench-experiments",
		"Fail-open monitor flags":             "fail-open-monitor-flags",
		"MiniC — the SPMD substrate language": "minic-—-the-spmd-substrate-language",
	}
	for in, want := range cases {
		if got := slugify(in); got != want {
			t.Errorf("slugify(%q) = %q, want %q", in, got, want)
		}
	}
}

// TestCheckLinks exercises the offline link checker on a synthetic
// tree: good relative links and anchors pass, a dangling file and a
// missing anchor fail.
func TestCheckLinks(t *testing.T) {
	root := t.TempDir()
	if err := os.Mkdir(filepath.Join(root, "docs"), 0o755); err != nil {
		t.Fatal(err)
	}
	write := func(rel, content string) {
		t.Helper()
		if err := os.WriteFile(filepath.Join(root, rel), []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write("README.md", "# Top\nsee [guide](docs/guide.md#deep-dive) and [self](#top)\nskip [ext](https://example.com/x)\n")
	write(filepath.Join("docs", "guide.md"), "# Guide\n## Deep dive\nback to [readme](../README.md)\n")

	var out bytes.Buffer
	if err := checkLinks(root, &out); err != nil {
		t.Fatalf("clean tree failed: %v", err)
	}
	if !strings.Contains(out.String(), "3 relative link(s)") {
		t.Errorf("unexpected summary: %s", out.String())
	}

	write(filepath.Join("docs", "guide.md"), "# Guide\nbroken [a](nope.md) and [b](../README.md#absent)\n")
	err := checkLinks(root, &out)
	if err == nil {
		t.Fatal("broken links passed")
	}
	if !strings.Contains(err.Error(), "nope.md") || !strings.Contains(err.Error(), "absent") {
		t.Errorf("error does not name both breaks: %v", err)
	}
}

// TestRepoDocsCurrent is the in-tree version of the CI drift gate: the
// committed generated docs must match what docgen would produce now.
func TestRepoDocsCurrent(t *testing.T) {
	root := "../../.."
	if _, err := os.Stat(filepath.Join(root, "go.mod")); err != nil {
		t.Skip("repo root not found")
	}
	targets, err := renderAll(root)
	if err != nil {
		t.Fatal(err)
	}
	for _, tgt := range targets {
		current, err := os.ReadFile(tgt.path)
		if err != nil {
			t.Errorf("%s: %v", tgt.path, err)
			continue
		}
		if string(current) != tgt.content {
			t.Errorf("%s is stale; run `go run ./cmd/internal/docgen`", tgt.path)
		}
	}
}

package blockwatch

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

const demoSrc = `
global int n;
global int acc[8];
func void setup() { n = 40; }
func void slave() {
	int me = tid();
	int i;
	int s = 0;
	for (i = 0; i < n; i = i + 1) {
		if (i % 2 == 0) {
			s = s + i;
		}
	}
	acc[me] = s;
	barrier();
	if (me == 0) {
		int t;
		int tot = 0;
		for (t = 0; t < nthreads(); t = t + 1) {
			tot = tot + acc[t];
		}
		output(tot);
	}
}`

func TestCompileAndRun(t *testing.T) {
	prog, err := Compile(demoSrc, "demo")
	if err != nil {
		t.Fatal(err)
	}
	if prog.Name() != "demo" {
		t.Errorf("Name = %q", prog.Name())
	}
	res, err := prog.Run(RunOptions{Threads: 4})
	if err != nil {
		t.Fatal(err)
	}
	if res.Crashed || res.Hung || res.Detected {
		t.Fatalf("clean run misbehaved: %+v", res)
	}
	// sum of even numbers < 40, times 4 threads... each thread computes
	// 0+2+...+38 = 380; total = 1520.
	if len(res.Output) != 1 || int64(res.Output[0]) != 4*380 {
		t.Fatalf("output = %v, want [1520]", res.Output)
	}
}

func TestCompileErrors(t *testing.T) {
	if _, err := Compile("func void main() {}", "bad"); err == nil {
		t.Fatal("program without slave accepted")
	}
	if _, err := Compile("garbage !", "bad"); err == nil {
		t.Fatal("syntax error accepted")
	}
}

func TestAnalyzeReport(t *testing.T) {
	prog, err := Compile(demoSrc, "demo")
	if err != nil {
		t.Fatal(err)
	}
	rep, err := prog.Analyze(AnalysisOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.ParallelBranches == 0 || rep.Checked == 0 {
		t.Fatalf("empty report: %+v", rep)
	}
	if rep.SimilarFraction <= 0.5 {
		t.Errorf("similar fraction %.2f suspiciously low for demo", rep.SimilarFraction)
	}
	var seenShared bool
	for _, br := range rep.Branches {
		if br.Category == "shared" {
			seenShared = true
		}
		if br.Checked && br.Why != "" {
			t.Errorf("checked branch has a why: %+v", br)
		}
	}
	if !seenShared {
		t.Error("demo must contain a shared branch")
	}
}

func TestProtectedRunNoFalsePositive(t *testing.T) {
	prog, err := Compile(demoSrc, "demo")
	if err != nil {
		t.Fatal(err)
	}
	res, err := prog.Run(RunOptions{Threads: 4, Protect: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Detected {
		t.Fatalf("false positive: %v", res.Violations)
	}
}

func TestCampaignEndToEnd(t *testing.T) {
	prog, err := Compile(demoSrc, "demo")
	if err != nil {
		t.Fatal(err)
	}
	base, err := prog.Campaign(CampaignOptions{Threads: 4, Faults: 60, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	prot, err := prog.Campaign(CampaignOptions{Threads: 4, Faults: 60, Seed: 1, Protect: true})
	if err != nil {
		t.Fatal(err)
	}
	if prot.Detected == 0 {
		t.Fatal("protected campaign detected nothing")
	}
	if prot.Coverage <= base.Coverage {
		t.Fatalf("protection did not improve coverage: %.2f vs %.2f", prot.Coverage, base.Coverage)
	}
	if got := base.Benign + base.Detected + base.Crashed + base.Hung + base.SDC; got != base.Activated {
		t.Errorf("outcome counts %d don't sum to activated %d", got, base.Activated)
	}
}

func TestBenchmarksAvailable(t *testing.T) {
	names := Benchmarks()
	if len(names) != 7 {
		t.Fatalf("got %d benchmarks, want 7", len(names))
	}
	prog, err := LoadBenchmark("fft")
	if err != nil {
		t.Fatal(err)
	}
	res, err := prog.Run(RunOptions{Threads: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.Crashed || res.Hung {
		t.Fatal("fft run failed")
	}
	src, err := BenchmarkSource("fft")
	if err != nil || !strings.Contains(src, "slave") {
		t.Errorf("BenchmarkSource failed: %v", err)
	}
	if _, err := LoadBenchmark("nope"); err == nil {
		t.Error("unknown benchmark accepted")
	}
	if _, err := BenchmarkSource("nope"); err == nil {
		t.Error("unknown benchmark source accepted")
	}
}

func TestOverheadMetric(t *testing.T) {
	prog, err := LoadBenchmark("radix")
	if err != nil {
		t.Fatal(err)
	}
	oh, err := prog.Overhead(4)
	if err != nil {
		t.Fatal(err)
	}
	if oh <= 1.0 || oh > 10.0 {
		t.Errorf("overhead %.2f outside plausible band", oh)
	}
}

func TestDumpIR(t *testing.T) {
	prog, err := Compile(demoSrc, "demo")
	if err != nil {
		t.Fatal(err)
	}
	ir := prog.DumpIR()
	for _, want := range []string{"module demo", "func void slave", "br", "phi"} {
		if !strings.Contains(ir, want) {
			t.Errorf("IR dump missing %q", want)
		}
	}
}

func TestStandaloneExamplePrograms(t *testing.T) {
	files, err := filepath.Glob("examples/programs/*.mc")
	if err != nil || len(files) < 3 {
		t.Fatalf("example programs missing: %v %v", files, err)
	}
	for _, path := range files {
		path := path
		t.Run(filepath.Base(path), func(t *testing.T) {
			src, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			prog, err := Compile(string(src), path)
			if err != nil {
				t.Fatalf("compile: %v", err)
			}
			rep, err := prog.Analyze(AnalysisOptions{})
			if err != nil {
				t.Fatal(err)
			}
			if rep.Checked == 0 {
				t.Error("no checked branches")
			}
			res, err := prog.Run(RunOptions{Threads: 4, Protect: true})
			if err != nil {
				t.Fatal(err)
			}
			if res.Detected || res.Crashed || res.Hung {
				t.Fatalf("clean protected run misbehaved: %+v", res)
			}
			if len(res.Output) == 0 {
				t.Error("no output")
			}
		})
	}
}

func TestOverflowPolicyRoundTrip(t *testing.T) {
	for _, p := range []OverflowPolicy{OverflowBlock, OverflowDropNewest, OverflowBlockTimeout} {
		name := p.String()
		got, err := ParseOverflowPolicy(name)
		if err != nil {
			t.Errorf("ParseOverflowPolicy(%v.String() = %q): %v", p, name, err)
			continue
		}
		if got != p {
			t.Errorf("round trip %v -> %q -> %v", p, name, got)
		}
	}
	// The empty string is the zero-flag case and must mean the default.
	if p, err := ParseOverflowPolicy(""); err != nil || p != OverflowBlock {
		t.Errorf("ParseOverflowPolicy(%q) = %v, %v; want OverflowBlock, nil", "", p, err)
	}
}

func TestParseOverflowPolicyRejectsUnknown(t *testing.T) {
	for _, bad := range []string{"bogus", "BLOCK", "drop_newest", "drop-oldest", "block "} {
		if _, err := ParseOverflowPolicy(bad); err == nil {
			t.Errorf("ParseOverflowPolicy(%q) accepted an unknown policy", bad)
		} else if !strings.Contains(err.Error(), bad) {
			t.Errorf("ParseOverflowPolicy(%q) error does not name the input: %v", bad, err)
		}
	}
}

func TestRunRejectsRemoteWithRecord(t *testing.T) {
	prog, err := LoadBenchmark("fft")
	if err != nil {
		t.Fatal(err)
	}
	_, err = prog.Run(RunOptions{Threads: 2, Remote: "127.0.0.1:1", Record: os.NewFile(0, "dummy")})
	if err == nil {
		t.Fatal("Run accepted Remote together with Record")
	}
}

// TestForeignReportRejected: a Report from another program, or a zero
// Report, is an error at every entry point that takes one — never a panic
// in an interpreter goroutine the caller cannot recover.
func TestForeignReportRejected(t *testing.T) {
	fft, err := LoadBenchmark("fft")
	if err != nil {
		t.Fatal(err)
	}
	radix, err := LoadBenchmark("radix")
	if err != nil {
		t.Fatal(err)
	}
	radixRep, err := radix.Analyze(AnalysisOptions{})
	if err != nil {
		t.Fatal(err)
	}
	entries := map[string]func(*Report) error{
		"Run": func(rep *Report) error {
			_, err := fft.Run(RunOptions{Threads: 4, Protect: true, Analysis: rep})
			return err
		},
		"Campaign": func(rep *Report) error {
			_, err := fft.Campaign(CampaignOptions{Threads: 2, Faults: 2, Protect: true, Analysis: rep})
			return err
		},
		"NetFaultCampaign": func(rep *Report) error {
			_, err := fft.NetFaultCampaign(NetFaultOptions{Threads: 2, Faults: 2, Analysis: rep})
			return err
		},
	}
	for name, entry := range entries {
		t.Run(name, func(t *testing.T) {
			for kind, rep := range map[string]*Report{"foreign": radixRep, "zero": {}} {
				if err := entry(rep); err == nil {
					t.Errorf("%s Report accepted", kind)
				}
			}
		})
	}
}

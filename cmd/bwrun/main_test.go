package main

import (
	"bytes"
	"encoding/json"
	"net"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"blockwatch/internal/remote"
	"blockwatch/internal/trace"
)

const smokeProgram = `
global int total;

func void setup() {
	total = 0;
}

func void slave() {
	int me = tid();
	if (me == 0) {
		output(nthreads());
	}
	barrier();
	output(me);
}
`

func writeSmokeProgram(t *testing.T) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "smoke.mc")
	if err := os.WriteFile(path, []byte(smokeProgram), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestRunFileClean(t *testing.T) {
	var out, errb bytes.Buffer
	res, err := run([]string{"-threads", "2", writeSmokeProgram(t)}, &out, &errb)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if res.Detected {
		t.Error("clean run reported detections (would exit 2)")
	}
	if !strings.Contains(out.String(), "run clean, no violations") {
		t.Errorf("expected clean run, got:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "output (3 values)") {
		t.Errorf("expected 3 output values (1 + one per thread), got:\n%s", out.String())
	}
}

func TestRunQuietSuppressesOutput(t *testing.T) {
	var out, errb bytes.Buffer
	if _, err := run([]string{"-threads", "2", "-q", writeSmokeProgram(t)}, &out, &errb); err != nil {
		t.Fatalf("run: %v", err)
	}
	if strings.Contains(out.String(), "int=") {
		t.Errorf("-q still printed output values:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "output (3 values) suppressed by -q") {
		t.Errorf("-q summary line missing:\n%s", out.String())
	}
}

func TestRunProtectedBenchWithOverhead(t *testing.T) {
	var out, errb bytes.Buffer
	_, err := run([]string{"-bench", "fft", "-threads", "2", "-protect", "-overhead"}, &out, &errb)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if !strings.Contains(out.String(), "protected=true") {
		t.Errorf("missing protected banner:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "instrumentation overhead") {
		t.Errorf("-overhead produced no overhead line:\n%s", out.String())
	}
	if strings.Contains(out.String(), "DETECTED") {
		t.Errorf("false positive on error-free protected run:\n%s", out.String())
	}
}

func TestRunRemoteAgainstDaemon(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := remote.NewServer(remote.ServerConfig{})
	go srv.Serve(ln)
	defer srv.Close()

	var out, errb bytes.Buffer
	res, err := run([]string{"-bench", "fft", "-threads", "2", "-remote", ln.Addr().String()}, &out, &errb)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if res.Detected {
		t.Error("clean remote run reported detections")
	}
	if !strings.Contains(out.String(), "protected=true") {
		t.Errorf("-remote did not imply protection:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "monitor health: healthy") {
		t.Errorf("remote run not healthy:\n%s", out.String())
	}
}

// TestRunRemoteRejectReason: a daemon at its session limit refuses the
// run; bwrun's output names the daemon's reason, not just a degraded
// health line.
func TestRunRemoteRejectReason(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := remote.NewServer(remote.ServerConfig{MaxConns: 1})
	go srv.Serve(ln)
	defer srv.Close()
	hog, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer hog.Close()

	spool := filepath.Join(t.TempDir(), "run.spool")
	var out, errb bytes.Buffer
	_, err = run([]string{"-bench", "fft", "-threads", "2",
		"-remote", ln.Addr().String(), "-spool", spool, "-q"}, &out, &errb)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if !strings.Contains(out.String(), "monitor health: degraded") {
		t.Errorf("refused run not degraded:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "monitor error: remote monitor: session rejected: daemon at capacity") {
		t.Errorf("refused run does not name the daemon's reason:\n%s", out.String())
	}
}

// TestRunRemoteRetryAndSpool: the self-healing flags against a healthy
// daemon — run clean, spool consumed (removed after the verdict), no
// sealed-trace hint printed.
func TestRunRemoteRetryAndSpool(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := remote.NewServer(remote.ServerConfig{})
	go srv.Serve(ln)
	defer srv.Close()

	spool := filepath.Join(t.TempDir(), "run.spool")
	var out, errb bytes.Buffer
	res, err := run([]string{"-bench", "fft", "-threads", "2",
		"-remote", ln.Addr().String(), "-retry", "3", "-spool", spool, "-q"}, &out, &errb)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if res.Detected {
		t.Error("clean remote run reported detections")
	}
	if strings.Contains(out.String(), "sealed") {
		t.Errorf("healthy run printed a sealed-trace hint:\n%s", out.String())
	}
	if _, err := os.Stat(spool); !os.IsNotExist(err) {
		t.Errorf("spool not removed after a delivered verdict: %v", err)
	}
}

func TestRunRetrySpoolRequireRemote(t *testing.T) {
	for _, args := range [][]string{
		{"-bench", "fft", "-retry", "2"},
		{"-bench", "fft", "-spool", "x.spool"},
	} {
		var out, errb bytes.Buffer
		if _, err := run(args, &out, &errb); err == nil {
			t.Errorf("%v accepted without -remote", args)
		}
	}
}

func TestRunRecordWritesReplayableTrace(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.bwtrace")
	var out, errb bytes.Buffer
	if _, err := run([]string{"-bench", "fft", "-threads", "2", "-record", path}, &out, &errb); err != nil {
		t.Fatalf("run: %v", err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	outcome, err := trace.Replay(f, trace.ReplayConfig{})
	if err != nil {
		t.Fatalf("recorded trace does not replay: %v", err)
	}
	if !outcome.Clean || outcome.Detected {
		t.Errorf("replayed trace: clean=%t detected=%t, want sealed and clean", outcome.Clean, outcome.Detected)
	}
	if outcome.Program != "fft" || outcome.Threads != 2 {
		t.Errorf("trace header %q/%d, want fft/2", outcome.Program, outcome.Threads)
	}
}

func TestRunTraceGoesToStderr(t *testing.T) {
	var out, errb bytes.Buffer
	if _, err := run([]string{"-threads", "2", "-trace", writeSmokeProgram(t)}, &out, &errb); err != nil {
		t.Fatalf("run: %v", err)
	}
	if !strings.Contains(errb.String(), "branch#") {
		t.Errorf("-trace wrote no branch lines to stderr:\n%s", errb.String())
	}
}

func TestRunErrors(t *testing.T) {
	var out, errb bytes.Buffer
	if _, err := run(nil, &out, &errb); err == nil {
		t.Error("expected error with no file and no -bench")
	}
	if _, err := run([]string{"-bench", "no-such-kernel"}, &out, &errb); err == nil {
		t.Error("expected error for unknown benchmark")
	}
	if _, err := run([]string{"-badflag"}, &out, &errb); err == nil {
		t.Error("expected error for unknown flag")
	}
	if _, err := run([]string{"-bench", "fft", "-remote", "127.0.0.1:1",
		"-record", filepath.Join(t.TempDir(), "x.bwtrace")}, &out, &errb); err == nil {
		t.Error("expected error for -remote together with -record")
	}
	if _, err := run([]string{"-bench", "fft", "-remote", "127.0.0.1:1"}, &out, &errb); err == nil {
		t.Error("expected connection error for -remote with no daemon")
	}
}

func TestRunOverflowPolicyAndWatchdogFlags(t *testing.T) {
	var out, errb bytes.Buffer
	args := []string{"-bench", "radix", "-threads", "4", "-protect",
		"-queuecap", "16", "-overflow", "drop-newest", "-watchdog", "2s"}
	if _, err := run(args, &out, &errb); err != nil {
		t.Fatalf("run: %v", err)
	}
	if !strings.Contains(out.String(), "run clean, no violations") {
		t.Errorf("overflowing queue produced a violation:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "monitor health: degraded") {
		t.Errorf("missing degraded health line after forced drops:\n%s", out.String())
	}
	if strings.Contains(out.String(), "dropped=0 ") {
		t.Errorf("tiny -queuecap with drop-newest dropped nothing:\n%s", out.String())
	}
}

func TestRunRejectsBadOverflowPolicy(t *testing.T) {
	var out, errb bytes.Buffer
	if _, err := run([]string{"-overflow", "bogus", "-bench", "fft"}, &out, &errb); err == nil {
		t.Error("expected error for unknown overflow policy")
	}
}

func TestRunMetricsDump(t *testing.T) {
	var out, errb bytes.Buffer
	if _, err := run([]string{"-bench", "fft", "-protect", "-q", "-metrics", "prom"}, &out, &errb); err != nil {
		t.Fatalf("run: %v", err)
	}
	prom := out.String()
	if !strings.Contains(prom, "# TYPE bw_monitor_events_total counter") {
		t.Errorf("-metrics prom missing monitor counter exposition:\n%s", prom)
	}
	if strings.Contains(prom, "bw_monitor_events_total 0\n") {
		t.Errorf("protected run recorded zero monitor events:\n%s", prom)
	}

	out.Reset()
	if _, err := run([]string{"-bench", "fft", "-protect", "-q", "-metrics", "json"}, &out, &errb); err != nil {
		t.Fatalf("run: %v", err)
	}
	var snap struct {
		Counters []struct {
			Name  string `json:"name"`
			Value uint64 `json:"value"`
		} `json:"counters"`
	}
	jsonPart := out.String()[strings.Index(out.String(), "{"):]
	if err := json.Unmarshal([]byte(jsonPart), &snap); err != nil {
		t.Fatalf("-metrics json output does not parse: %v\n%s", err, out.String())
	}
	found := false
	for _, c := range snap.Counters {
		if c.Name == "bw_monitor_events_total" && c.Value > 0 {
			found = true
		}
	}
	if !found {
		t.Errorf("-metrics json missing nonzero bw_monitor_events_total:\n%s", jsonPart)
	}
}

func TestRunRejectsBadMetricsFormat(t *testing.T) {
	var out, errb bytes.Buffer
	if _, err := run([]string{"-metrics", "xml", "-bench", "fft"}, &out, &errb); err == nil {
		t.Error("expected error for unknown -metrics format")
	}
}

func TestRunMetricsAddr(t *testing.T) {
	var out, errb bytes.Buffer
	if _, err := run([]string{"-bench", "fft", "-protect", "-q", "-metrics-addr", "127.0.0.1:0"}, &out, &errb); err != nil {
		t.Fatalf("run: %v", err)
	}
	if !strings.Contains(errb.String(), "metrics endpoints on http://127.0.0.1:") {
		t.Errorf("missing -metrics-addr announce line:\n%s", errb.String())
	}
}

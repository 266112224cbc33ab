package main

import (
	"bytes"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"blockwatch"
)

// syncBuffer is a bytes.Buffer that the daemon goroutine may write while
// the test polls what it has written.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// TestServeAndShutdown boots the daemon on a unix socket, runs one
// protected benchmark through it via the facade, then delivers the stop
// signal and checks the shutdown line.
func TestServeAndShutdown(t *testing.T) {
	sock := filepath.Join(t.TempDir(), "bw.sock")
	var stdout, stderr syncBuffer
	stop := make(chan os.Signal, 1)
	done := make(chan error, 1)
	go func() {
		done <- run([]string{"serve", "-addr", "unix:" + sock}, &stdout, &stderr, stop)
	}()

	// Wait for the socket to appear.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if _, err := os.Stat(sock); err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("daemon never listened; stderr: %s", stderr.String())
		}
		time.Sleep(5 * time.Millisecond)
	}

	prog, err := blockwatch.LoadBenchmark("fft")
	if err != nil {
		t.Fatal(err)
	}
	res, err := prog.Run(blockwatch.RunOptions{Threads: 4, Protect: true, Remote: sock})
	if err != nil {
		t.Fatal(err)
	}
	if res.Detected {
		t.Error("clean remote run detected a violation")
	}
	if res.Health != "healthy" {
		t.Errorf("health = %q, want healthy", res.Health)
	}

	stop <- syscall.SIGTERM
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("daemon exited with error: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("daemon did not shut down on SIGTERM")
	}
	if !strings.Contains(stdout.String(), "shutting down (1 sessions served)") {
		t.Errorf("shutdown line missing or wrong session count:\n%s", stdout.String())
	}
	if !strings.Contains(stderr.String(), "session start") {
		t.Errorf("per-session log line missing:\n%s", stderr.String())
	}
}

// TestDrainOnSignal: with -drain, the stop signal takes the graceful
// path — the daemon announces it is draining, still prints the shutdown
// line, and exits. The new hardening flags must all parse. Drain
// behavior under live sessions is covered by internal/remote.
func TestDrainOnSignal(t *testing.T) {
	sock := filepath.Join(t.TempDir(), "bw.sock")
	var stdout, stderr syncBuffer
	stop := make(chan os.Signal, 1)
	done := make(chan error, 1)
	go func() {
		done <- run([]string{"serve", "-addr", "unix:" + sock,
			"-drain", "5s", "-maxconns", "8", "-readtimeout", "30s", "-writetimeout", "5s"},
			&stdout, &stderr, stop)
	}()

	deadline := time.Now().Add(5 * time.Second)
	for {
		if _, err := os.Stat(sock); err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("daemon never listened; stderr: %s", stderr.String())
		}
		time.Sleep(5 * time.Millisecond)
	}

	stop <- syscall.SIGTERM
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("daemon exited with error: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("drain did not complete with no live sessions")
	}
	if !strings.Contains(stdout.String(), "draining (up to 5s") {
		t.Errorf("draining line missing:\n%s", stdout.String())
	}
	if !strings.Contains(stdout.String(), "shutting down (0 sessions served)") {
		t.Errorf("shutdown line missing:\n%s", stdout.String())
	}
	if _, err := os.Stat(sock); !os.IsNotExist(err) {
		t.Errorf("unix socket left behind after shutdown: %v", err)
	}
}

func TestUsageErrors(t *testing.T) {
	var out bytes.Buffer
	stop := make(chan os.Signal)
	if err := run(nil, &out, &out, stop); err == nil {
		t.Error("missing serve subcommand not rejected")
	}
	if err := run([]string{"stats"}, &out, &out, stop); err == nil {
		t.Error("unknown subcommand not rejected")
	}
	if err := run([]string{"serve", "extra"}, &out, &out, stop); err == nil {
		t.Error("trailing argument not rejected")
	}
}

// TestAdminMetricsEndpoint is the observability acceptance path: daemon
// with -admin, one protected loopback run through it, then a /metrics
// scrape that must show nonzero wire and session counters, a working
// /healthz, and a live pprof index.
func TestAdminMetricsEndpoint(t *testing.T) {
	sock := filepath.Join(t.TempDir(), "bw.sock")
	var stdout, stderr syncBuffer
	stop := make(chan os.Signal, 1)
	done := make(chan error, 1)
	go func() {
		done <- run([]string{"serve", "-addr", "unix:" + sock, "-admin", "127.0.0.1:0", "-quiet"}, &stdout, &stderr, stop)
	}()
	defer func() {
		stop <- syscall.SIGTERM
		if err := <-done; err != nil {
			t.Errorf("daemon exited with error: %v", err)
		}
	}()

	// Wait for both listeners; the admin line prints its bound address.
	deadline := time.Now().Add(5 * time.Second)
	var admin string
	for admin == "" {
		if _, err := os.Stat(sock); err == nil {
			if _, after, ok := strings.Cut(stdout.String(), "admin endpoints on http://"); ok {
				admin = strings.Fields(after)[0]
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("daemon never came up; stdout: %s stderr: %s", stdout.String(), stderr.String())
		}
		time.Sleep(5 * time.Millisecond)
	}

	prog, err := blockwatch.LoadBenchmark("fft")
	if err != nil {
		t.Fatal(err)
	}
	res, err := prog.Run(blockwatch.RunOptions{Threads: 4, Remote: sock})
	if err != nil {
		t.Fatal(err)
	}
	if res.Detected || res.Health != "healthy" {
		t.Fatalf("loopback run not clean: detected=%t health=%s", res.Detected, res.Health)
	}

	resp, err := http.Get("http://" + admin + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics: status %d, err %v", resp.StatusCode, err)
	}
	scrape := string(body)
	if !strings.Contains(scrape, "text/plain") && resp.Header.Get("Content-Type") == "" {
		t.Error("/metrics has no Content-Type")
	}
	// The session just finished, so these must all be nonzero.
	for _, name := range []string{
		"bw_server_sessions_total",
		"bw_server_sessions_clean_total",
		"bw_server_session_events_total",
		"bw_wire_rx_frames_total",
		"bw_wire_rx_bytes_total",
		"bw_monitor_events_total",
		"bw_monitor_batches_total",
	} {
		val, ok := scrapeValue(scrape, name)
		if !ok {
			t.Errorf("/metrics missing %s:\n%s", name, scrape)
			continue
		}
		if val == 0 {
			t.Errorf("%s = 0 after a loopback session", name)
		}
	}
	if val, ok := scrapeValue(scrape, "bw_server_sessions_active"); !ok || val != 0 {
		t.Errorf("bw_server_sessions_active = %v, %v; want 0 after session end", val, ok)
	}

	resp, err = http.Get("http://" + admin + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("/healthz status = %d", resp.StatusCode)
	}
	resp, err = http.Get("http://" + admin + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("/debug/pprof/ status = %d", resp.StatusCode)
	}
}

// scrapeValue pulls a plain (non-histogram) sample value out of a
// Prometheus text exposition.
func scrapeValue(scrape, name string) (float64, bool) {
	for _, line := range strings.Split(scrape, "\n") {
		fields := strings.Fields(line)
		if len(fields) == 2 && fields[0] == name {
			v, err := strconv.ParseFloat(fields[1], 64)
			return v, err == nil
		}
	}
	return 0, false
}

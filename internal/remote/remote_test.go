package remote

import (
	"encoding/binary"
	"fmt"
	"net"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"blockwatch/internal/core"
	"blockwatch/internal/inject"
	"blockwatch/internal/interp"
	"blockwatch/internal/ir"
	"blockwatch/internal/monitor"
	"blockwatch/internal/splash"
	"blockwatch/internal/wire"
)

const testThreads = 4

// kernelPlans compiles and analyzes one SPLASH kernel.
func kernelPlans(t testing.TB, name string) (*ir.Module, map[int]*core.CheckPlan) {
	t.Helper()
	prog, err := splash.Get(name)
	if err != nil {
		t.Fatal(err)
	}
	mod, err := prog.Compile()
	if err != nil {
		t.Fatal(err)
	}
	a, err := core.Analyze(mod, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return mod, a.Plans
}

// startServer serves on an ephemeral loopback TCP listener.
func startServer(t testing.TB, cfg ServerConfig) (string, *Server) {
	t.Helper()
	return startServerOn(t, "tcp", cfg)
}

// startServerOn serves on an ephemeral loopback TCP listener or, for
// network "unix", on a socket in the test's temp dir. The address it
// returns is in Dial syntax.
func startServerOn(t testing.TB, network string, cfg ServerConfig) (string, *Server) {
	t.Helper()
	addr := "127.0.0.1:0"
	if network == "unix" {
		addr = "unix:" + filepath.Join(t.TempDir(), "bwmonitord.sock")
	}
	ln, err := Listen(addr)
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(cfg)
	go srv.Serve(ln)
	t.Cleanup(srv.Close)
	if network == "unix" {
		return addr, srv
	}
	return ln.Addr().String(), srv
}

// runInProcess is the reference: a run against the ordinary in-process
// monitor.
func runInProcess(t testing.TB, mod *ir.Module, plans map[int]*core.CheckPlan, fault *inject.Fault) *interp.Result {
	t.Helper()
	opts := interp.Options{Threads: testThreads, Mode: interp.MonitorActive, Plans: plans}
	if fault != nil {
		opts.Fault = inject.NewSingle(*fault)
	}
	res, err := interp.Run(mod, opts)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// runRemote runs the same program with the monitor on the other side of
// the given daemon address.
func runRemote(t testing.TB, addr, name string, mod *ir.Module, plans map[int]*core.CheckPlan, fault *inject.Fault) *interp.Result {
	t.Helper()
	client, err := Dial(addr, ClientConfig{Program: name, NumThreads: testThreads, Plans: plans})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	opts := interp.Options{Threads: testThreads, Mode: interp.MonitorActive, Plans: plans, Sink: client}
	if fault != nil {
		opts.Fault = inject.NewSingle(*fault)
	}
	res, err := interp.Run(mod, opts)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// compareRuns asserts the acceptance contract: given the same event
// stream, the remote run's detection verdict and violation list (already
// canonically ordered by the checking monitor) are identical to the
// in-process monitor's. A fault that corrupts the program's
// synchronization can make the execution itself scheduling-sensitive —
// then the two runs are different programs and the streams legitimately
// differ, so the comparison is skipped (reported via the return value;
// clean runs never diverge).
func compareRuns(t *testing.T, label string, local, remote *interp.Result) bool {
	t.Helper()
	if !reflect.DeepEqual(local.EventCounts, remote.EventCounts) ||
		!reflect.DeepEqual(local.BranchCounts, remote.BranchCounts) {
		t.Logf("%s: faulty execution diverged under different sink timing (events %v vs %v) — stream comparison skipped",
			label, local.EventCounts, remote.EventCounts)
		return false
	}
	if local.Detected != remote.Detected {
		t.Errorf("%s: Detected: in-process %t, remote %t", label, local.Detected, remote.Detected)
	}
	if !reflect.DeepEqual(local.Violations, remote.Violations) {
		t.Errorf("%s: violations differ\n in-process: %v\n remote:     %v", label, local.Violations, remote.Violations)
	}
	ls, rs := local.MonitorStats, remote.MonitorStats
	if ls.Events != rs.Events || ls.Instances != rs.Instances || ls.Flushes != rs.Flushes {
		t.Errorf("%s: monitor stats differ: in-process %+v, remote %+v", label, ls, rs)
	}
	if remote.MonitorHealth != monitor.Healthy {
		t.Errorf("%s: remote health = %v, want Healthy", label, remote.MonitorHealth)
	}
	return true
}

// TestLoopbackMatchesInProcessAllKernels runs every SPLASH kernel twice
// — in-process monitor and loopback remote monitor, over tcp and over a
// unix socket — clean and with a deterministic injected fault, and
// requires identical violations. At least one faulty run across the
// suite must actually detect on each transport, so the equality is not
// vacuously about empty sets.
func TestLoopbackMatchesInProcessAllKernels(t *testing.T) {
	for _, network := range []string{"tcp", "unix"} {
		t.Run(network, func(t *testing.T) {
			addr, _ := startServerOn(t, network, ServerConfig{})
			anyDetected := false
			for _, name := range splash.Names() {
				mod, plans := kernelPlans(t, name)

				clean := runInProcess(t, mod, plans, nil)
				if clean.Detected {
					t.Fatalf("%s: clean run detected a violation (false positive)", name)
				}
				compareRuns(t, name+"/clean", clean, runRemote(t, addr, name, mod, plans, nil))

				// Sweep a few deterministic fault positions; compare every
				// one and note whether any produced a compared detection.
				for _, frac := range []uint64{2, 3, 5} {
					seq := clean.BranchCounts[1] / frac
					if seq == 0 {
						continue
					}
					fault := &inject.Fault{Type: inject.BranchFlip, Thread: 1, Seq: seq}
					local := runInProcess(t, mod, plans, fault)
					remote := runRemote(t, addr, name, mod, plans, fault)
					if compareRuns(t, fmt.Sprintf("%s/fault@%d", name, seq), local, remote) && local.Detected {
						anyDetected = true
					}
				}
			}
			if !anyDetected {
				t.Error("no injected fault was detected by any kernel — equality checks were vacuous")
			}
		})
	}
}

// TestConcurrentSessions streams three kernels through one daemon at the
// same time; each session's results must still match its own in-process
// reference (clean runs, whose executions are deterministic under any
// scheduling, so a mismatch here means sessions cross-contaminated).
func TestConcurrentSessions(t *testing.T) {
	addr, srv := startServer(t, ServerConfig{})
	names := []string{"fft", "radix", "water-nsquared"}
	var wg sync.WaitGroup
	for _, name := range names {
		name := name
		wg.Add(1)
		go func() {
			defer wg.Done()
			mod, plans := kernelPlans(t, name)
			local := runInProcess(t, mod, plans, nil)
			remote := runRemote(t, addr, name, mod, plans, nil)
			if !compareRuns(t, name, local, remote) {
				t.Errorf("%s: clean runs diverged — sessions are not isolated", name)
			}
		}()
	}
	wg.Wait()
	// A handler counts its session in a defer that runs after the result
	// frame reached the client; Close waits for every handler to return.
	srv.Close()
	if got := srv.Sessions(); got != uint64(len(names)) {
		t.Errorf("server handled %d sessions, want %d", got, len(names))
	}
}

// TestConcurrentFaultySessionsMatchSequential runs two faulty kernels
// through one daemon one after the other, then both at once: the
// simultaneous sessions' monitors (only one of which can reuse the
// process's spare table) must reach the sequential verdicts, detections
// included.
func TestConcurrentFaultySessionsMatchSequential(t *testing.T) {
	addr, _ := startServer(t, ServerConfig{})
	type job struct {
		name  string
		mod   *ir.Module
		plans map[int]*core.CheckPlan
		fault *inject.Fault
		seq   *interp.Result
	}
	var jobs []*job
	for _, name := range splash.Names() {
		if len(jobs) == 2 {
			break
		}
		mod, plans := kernelPlans(t, name)
		clean := runInProcess(t, mod, plans, nil)
		for _, frac := range []uint64{2, 3, 5, 7} {
			fault := &inject.Fault{Type: inject.BranchFlip, Thread: 1, Seq: clean.BranchCounts[1] / frac}
			if res := runRemote(t, addr, name, mod, plans, fault); res.Detected {
				jobs = append(jobs, &job{name, mod, plans, fault, res})
				break
			}
		}
	}
	if len(jobs) != 2 {
		t.Fatalf("found a detected fault in %d kernels, want 2", len(jobs))
	}
	conc := make([]*interp.Result, len(jobs))
	var wg sync.WaitGroup
	for i, j := range jobs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			conc[i] = runRemote(t, addr, j.name, j.mod, j.plans, j.fault)
		}()
	}
	wg.Wait()
	compared := 0
	for i, j := range jobs {
		if compareRuns(t, j.name+"/concurrent", j.seq, conc[i]) {
			compared++
		}
	}
	if compared == 0 {
		t.Error("every faulty execution diverged between runs: nothing was compared")
	}
}

// TestClientFailOpenOnServerKill is the kill-the-daemon acceptance test:
// the server accepts the session and then drops the connection, so the
// client's stream dies mid-run. The monitored program must still run to
// completion with Health() = Degraded, and the relay goroutine must not
// leak.
func TestClientFailOpenOnServerKill(t *testing.T) {
	before := runtime.NumGoroutine()

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	accepted := make(chan struct{})
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		// Read the hello (so NewClient succeeds), then kill the session the
		// way a crashed daemon would.
		buf := make([]byte, 256)
		conn.Read(buf)
		conn.Close()
		close(accepted)
	}()

	mod, plans := kernelPlans(t, "water-nsquared")
	client, err := Dial(ln.Addr().String(), ClientConfig{
		Program: "water-nsquared", NumThreads: testThreads, Plans: plans,
		ResultTimeout: 5 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	<-accepted
	res, err := interp.Run(mod, interp.Options{
		Threads: testThreads, Mode: interp.MonitorActive, Plans: plans, Sink: client,
	})
	if err != nil {
		t.Fatalf("program did not run to completion after daemon death: %v", err)
	}
	client.Close()

	if !res.Clean() {
		t.Errorf("program trapped after daemon death: %+v", res.Traps)
	}
	if res.MonitorHealth != monitor.Degraded {
		t.Errorf("health = %v, want Degraded", res.MonitorHealth)
	}
	if res.Detected {
		t.Error("dead daemon must not produce detections")
	}

	// The relay goroutine must be gone: poll briefly for the count to
	// return to (near) the baseline.
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= before+2 {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Errorf("goroutines leaked: before %d, after %d", before, runtime.NumGoroutine())
}

// TestServerSurvivesGarbageHello: a connection that opens with garbage
// only kills its own session; the daemon keeps serving real clients.
func TestServerSurvivesGarbageHello(t *testing.T) {
	addr, srv := startServer(t, ServerConfig{})

	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	conn.Write([]byte("GET / HTTP/1.1\r\n\r\n"))
	conn.Close()

	mod, plans := kernelPlans(t, "fft")
	local := runInProcess(t, mod, plans, nil)
	remote := runRemote(t, addr, "fft", mod, plans, nil)
	compareRuns(t, "fft/after-garbage", local, remote)
	_ = srv
}

// TestServerRejectsAbsurdThreadCount: a hello claiming more threads than
// MaxThreads is refused without allocating a monitor.
func TestServerRejectsAbsurdThreadCount(t *testing.T) {
	var mu sync.Mutex
	var lines []string
	addr, _ := startServer(t, ServerConfig{MaxThreads: 8, Logf: func(format string, args ...any) {
		mu.Lock()
		lines = append(lines, fmt.Sprintf(format, args...))
		mu.Unlock()
	}})
	_, plans := kernelPlans(t, "fft")
	client, err := Dial(addr, ClientConfig{Program: "big", NumThreads: 9, Plans: plans})
	if err != nil {
		t.Fatal(err) // hello write itself succeeds; rejection is server-side
	}
	client.Start()
	s := client.Sender(0)
	s.Send(monitor.Event{Kind: monitor.EvBranch, Thread: 0, BranchID: 1, Key1: 1, Key2: 1})
	s.Send(monitor.Event{Kind: monitor.EvDone, Thread: 0})
	for tid := 1; tid < 9; tid++ {
		client.Sender(tid).Send(monitor.Event{Kind: monitor.EvDone, Thread: int32(tid)})
	}
	client.Close()
	if client.Health() == monitor.Healthy {
		t.Error("rejected session still reports Healthy")
	}
	mu.Lock()
	defer mu.Unlock()
	found := false
	for _, l := range lines {
		if l == `session rejected: "big" claims 9 threads (max 8)` {
			found = true
		}
	}
	if !found {
		t.Errorf("rejection not logged; log lines: %q", lines)
	}
}

// TestServerRefusesVersion1: a version-1 client's hello is answered with
// a reject frame that names the codec version, and no session starts.
func TestServerRefusesVersion1(t *testing.T) {
	addr, srv := startServer(t, ServerConfig{})
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// A version-1 hello: the hello layout is unchanged since version 1.
	var hello []byte
	hello = binary.LittleEndian.AppendUint32(hello, wire.Magic)
	hello = binary.AppendUvarint(hello, 1) // version
	hello = binary.AppendUvarint(hello, 3) // len("old")
	hello = append(hello, "old"...)        // program
	hello = binary.AppendUvarint(hello, 2) // threads
	hello = binary.AppendUvarint(hello, 0) // plans
	if _, err := conn.Write(rawFrame(wire.FrameHello, hello)); err != nil {
		t.Fatal(err)
	}
	_ = conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	f, err := wire.NewReader(conn).ReadFrame()
	if err != nil {
		t.Fatalf("reading the server's answer: %v", err)
	}
	if f.Type != wire.FrameReject || !strings.Contains(f.Reject, "version") {
		t.Fatalf("server answered frame type 0x%02x %q, want a reject naming the version", f.Type, f.Reject)
	}
	conn.Close()
	srv.Close()
	if n := srv.Sessions(); n != 1 {
		t.Errorf("Sessions() = %d after the refused hello, want 1 (counted, never started)", n)
	}
}

func TestSplitAddr(t *testing.T) {
	cases := []struct {
		in, network, address string
	}{
		{"127.0.0.1:4777", "tcp", "127.0.0.1:4777"},
		{"localhost:9", "tcp", "localhost:9"},
		{"tcp:host:1234", "tcp", "host:1234"},
		{"unix:/tmp/bw.sock", "unix", "/tmp/bw.sock"},
		{"/tmp/bw.sock", "unix", "/tmp/bw.sock"},
		{"./rel/bw.sock", "unix", "./rel/bw.sock"},
	}
	for _, c := range cases {
		network, address := SplitAddr(c.in)
		if network != c.network || address != c.address {
			t.Errorf("SplitAddr(%q) = (%q, %q), want (%q, %q)", c.in, network, address, c.network, c.address)
		}
	}
}

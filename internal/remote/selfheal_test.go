package remote

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math/rand"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"blockwatch/internal/inject"
	"blockwatch/internal/interp"
	"blockwatch/internal/monitor"
	"blockwatch/internal/trace"
	"blockwatch/internal/wire"
)

// checkNoGoroutineLeak polls until the goroutine count returns to (near)
// the baseline taken at the start of the test.
func checkNoGoroutineLeak(t *testing.T, before int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= before+2 {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Errorf("goroutines leaked: before %d, after %d", before, runtime.NumGoroutine())
}

// TestClientReconnectIdenticalVerdict is the tentpole acceptance test:
// a connection drop mid-stream, with spooling and retry enabled, must
// yield the same verdict as the in-process monitor — the client redials,
// replays the spooled history into a fresh session, and the daemon's
// verdict covers the complete stream exactly once.
func TestClientReconnectIdenticalVerdict(t *testing.T) {
	before := runtime.NumGoroutine()
	addr, _ := startServer(t, ServerConfig{})
	mod, plans := kernelPlans(t, "fft")

	clean := runInProcess(t, mod, plans, nil)
	fault := &inject.Fault{Type: inject.BranchFlip, Thread: 1, Seq: clean.BranchCounts[1] / 2}

	for _, tc := range []struct {
		label string
		fault *inject.Fault
	}{{"clean", nil}, {"faulty", fault}} {
		local := runInProcess(t, mod, plans, tc.fault)
		ij := inject.NewNetInjector(inject.NetFaultPlan{Kind: inject.NetDrop, AfterFrames: 8})
		client, err := Dial(addr, ClientConfig{
			Program: "fft", NumThreads: testThreads, Plans: plans,
			SpoolPath:     filepath.Join(t.TempDir(), "fft.bwspool"),
			WrapConn:      ij.Wrap,
			ResultTimeout: 10 * time.Second,
			Retry: RetryConfig{
				Attempts: 5, BaseDelay: time.Millisecond,
				MaxDelay: 20 * time.Millisecond, DialTimeout: time.Second,
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		opts := interp.Options{Threads: testThreads, Mode: interp.MonitorActive, Plans: plans, Sink: client}
		if tc.fault != nil {
			opts.Fault = inject.NewSingle(*tc.fault)
		}
		res, err := interp.Run(mod, opts)
		if err != nil {
			t.Fatalf("%s: %v", tc.label, err)
		}
		client.Close()

		if !ij.Fired() {
			t.Fatalf("%s: drop fault never fired (frames=%d)", tc.label, ij.Frames())
		}
		if client.Reconnects() < 1 {
			t.Fatalf("%s: client never reconnected", tc.label)
		}
		if res.MonitorHealth != monitor.Degraded {
			t.Errorf("%s: health = %v, want Degraded (a drop happened)", tc.label, res.MonitorHealth)
		}
		if sealed := client.SealedSpool(); sealed != "" {
			t.Errorf("%s: spool sealed (%s) even though the verdict was delivered", tc.label, sealed)
		}
		if !reflect.DeepEqual(local.EventCounts, res.EventCounts) ||
			!reflect.DeepEqual(local.BranchCounts, res.BranchCounts) {
			t.Logf("%s: faulty execution diverged under different sink timing — verdict comparison skipped", tc.label)
			continue
		}
		if local.Detected != res.Detected {
			t.Errorf("%s: Detected: in-process %t, reconnected remote %t", tc.label, local.Detected, res.Detected)
		}
		if !reflect.DeepEqual(local.Violations, res.Violations) {
			t.Errorf("%s: violations differ\n in-process: %v\n remote:     %v", tc.label, local.Violations, res.Violations)
		}
		ls, rs := local.MonitorStats, res.MonitorStats
		if ls.Events != rs.Events || ls.Instances != rs.Instances || ls.Flushes != rs.Flushes {
			t.Errorf("%s: stats differ after reconnect (events duplicated or lost): in-process %+v, remote %+v",
				tc.label, ls, rs)
		}
	}
	checkNoGoroutineLeak(t, before)
}

// TestSpoolReplayAfterDaemonKill: the daemon dies for good mid-run. The
// program still completes (fail-open), the client seals its spool, and
// an offline replay of the sealed file reproduces the in-process
// verdict.
func TestSpoolReplayAfterDaemonKill(t *testing.T) {
	before := runtime.NumGoroutine()
	mod, plans := kernelPlans(t, "fft")
	clean := runInProcess(t, mod, plans, nil)
	fault := &inject.Fault{Type: inject.BranchFlip, Thread: 1, Seq: clean.BranchCounts[1] / 2}
	local := runInProcess(t, mod, plans, fault)

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	killed := make(chan struct{})
	go func() {
		defer close(killed)
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		// Take the hello, then die: close the session AND the listener so
		// every reconnect attempt is refused.
		buf := make([]byte, 4096)
		conn.Read(buf)
		conn.Close()
		ln.Close()
	}()

	spoolPath := filepath.Join(t.TempDir(), "fft.bwspool")
	client, err := Dial(ln.Addr().String(), ClientConfig{
		Program: "fft", NumThreads: testThreads, Plans: plans,
		SpoolPath:     spoolPath,
		ResultTimeout: time.Second,
		Retry: RetryConfig{
			Attempts: 2, BaseDelay: time.Millisecond,
			MaxDelay: 10 * time.Millisecond, DialTimeout: time.Second,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	<-killed
	res, err := interp.Run(mod, interp.Options{
		Threads: testThreads, Mode: interp.MonitorActive, Plans: plans, Sink: client,
		Fault: inject.NewSingle(*fault),
	})
	if err != nil {
		t.Fatalf("program did not complete after daemon death: %v", err)
	}
	client.Close()

	if !res.Clean() {
		t.Errorf("program trapped after daemon death: %+v", res.Traps)
	}
	if res.MonitorHealth != monitor.Degraded {
		t.Errorf("health = %v, want Degraded", res.MonitorHealth)
	}
	sealed := client.SealedSpool()
	if sealed == "" {
		t.Fatal("no sealed spool after terminal daemon death")
	}

	f, err := os.Open(sealed)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	out, err := trace.Replay(f, trace.ReplayConfig{})
	if err != nil {
		t.Fatalf("sealed spool does not replay: %v", err)
	}
	if !out.Clean {
		t.Error("sealed spool replays as truncated, want clean (finish marker present)")
	}
	if !reflect.DeepEqual(local.EventCounts, res.EventCounts) ||
		!reflect.DeepEqual(local.BranchCounts, res.BranchCounts) {
		t.Log("faulty execution diverged under different sink timing — verdict comparison skipped")
	} else {
		if out.Detected != local.Detected {
			t.Errorf("replayed Detected = %t, in-process %t", out.Detected, local.Detected)
		}
		if !reflect.DeepEqual(out.Violations, local.Violations) {
			t.Errorf("replayed violations differ\n in-process: %v\n replay:     %v", local.Violations, out.Violations)
		}
		if out.Stats.Events != local.MonitorStats.Events {
			t.Errorf("replayed %d events, in-process saw %d", out.Stats.Events, local.MonitorStats.Events)
		}
	}
	checkNoGoroutineLeak(t, before)
}

// TestHelperDaemon is not a test: it is the body of the child process
// TestRealSIGKILLSealsSpool spawns. It serves a daemon on the unix
// socket named by the environment and blocks until killed.
func TestHelperDaemon(t *testing.T) {
	sock := os.Getenv("BW_REMOTE_HELPER_SOCK")
	if sock == "" {
		t.Skip("helper-process body; only runs when spawned by TestRealSIGKILLSealsSpool")
	}
	ln, err := net.Listen("unix", sock)
	if err != nil {
		fmt.Fprintln(os.Stderr, "helper:", err)
		os.Exit(1)
	}
	_ = NewServer(ServerConfig{}).Serve(ln)
}

// hookConn runs before ahead of every write on the connection.
type hookConn struct {
	net.Conn
	before func()
}

func (h *hookConn) Write(p []byte) (int, error) {
	h.before()
	return h.Conn.Write(p)
}

// TestRealSIGKILLSealsSpool is the daemon-death drill against a real
// operating-system process: a second test binary serves the session on a
// unix socket and is SIGKILLed after a few frames. The program must run
// to completion degraded, the client must seal its spool (every redial
// meets a dead socket), and the offline replay of the sealed spool must
// reproduce the in-process verdict. Clean and faulty.
func TestRealSIGKILLSealsSpool(t *testing.T) {
	mod, plans := kernelPlans(t, "fft")
	cleanRef := runInProcess(t, mod, plans, nil)
	fault := &inject.Fault{Type: inject.BranchFlip, Thread: 1, Seq: cleanRef.BranchCounts[1] / 2}
	for _, tc := range []struct {
		label string
		fault *inject.Fault
	}{{"clean", nil}, {"faulty", fault}} {
		t.Run(tc.label, func(t *testing.T) {
			local := runInProcess(t, mod, plans, tc.fault)

			dir := t.TempDir()
			sock := filepath.Join(dir, "helper.sock")
			helper := exec.Command(os.Args[0], "-test.run=^TestHelperDaemon$")
			helper.Env = append(os.Environ(), "BW_REMOTE_HELPER_SOCK="+sock)
			helper.Stdout, helper.Stderr = io.Discard, io.Discard
			if err := helper.Start(); err != nil {
				t.Fatal(err)
			}
			var once sync.Once
			var killed atomic.Bool
			kill := func() {
				once.Do(func() {
					// SIGKILL, then reap: the daemon is gone before the
					// write that triggered the kill goes out.
					helper.Process.Kill()
					helper.Wait()
				})
			}
			defer kill()
			addr := "unix:" + sock
			deadline := time.Now().Add(10 * time.Second)
			for {
				conn, err := net.DialTimeout("unix", sock, 200*time.Millisecond)
				if err == nil {
					conn.Close()
					break
				}
				if time.Now().After(deadline) {
					t.Fatal("helper daemon never came up")
				}
				time.Sleep(10 * time.Millisecond)
			}

			const killAt = 4 // the hello is write 1
			var writes atomic.Int64
			client, err := Dial(addr, ClientConfig{
				Program: "fft", NumThreads: testThreads, Plans: plans,
				SpoolPath:     filepath.Join(dir, "run.bwspool"),
				ResultTimeout: 2 * time.Second,
				WrapConn: func(c net.Conn) net.Conn {
					return &hookConn{Conn: c, before: func() {
						if writes.Add(1) == killAt {
							killed.Store(true)
							kill()
						}
					}}
				},
				Retry: RetryConfig{
					Attempts: 2, BaseDelay: time.Millisecond,
					MaxDelay: 10 * time.Millisecond, DialTimeout: time.Second,
				},
			})
			if err != nil {
				t.Fatal(err)
			}
			opts := interp.Options{Threads: testThreads, Mode: interp.MonitorActive, Plans: plans, Sink: client}
			if tc.fault != nil {
				opts.Fault = inject.NewSingle(*tc.fault)
			}
			res, err := interp.Run(mod, opts)
			if err != nil {
				t.Fatalf("program did not complete after daemon death: %v", err)
			}
			client.Close()

			if !killed.Load() {
				t.Fatalf("the kill never fired: the session made %d writes, want >= %d", writes.Load(), killAt)
			}
			if res.MonitorHealth != monitor.Degraded {
				t.Errorf("health = %v, want Degraded", res.MonitorHealth)
			}
			sealed := client.SealedSpool()
			if sealed == "" {
				t.Fatal("no sealed spool after the daemon process was killed")
			}
			f, err := os.Open(sealed)
			if err != nil {
				t.Fatal(err)
			}
			defer f.Close()
			out, err := trace.Replay(f, trace.ReplayConfig{})
			if err != nil {
				t.Fatalf("sealed spool does not replay: %v", err)
			}
			if !out.Clean {
				t.Error("sealed spool replays as truncated, want clean (finish marker present)")
			}
			if !reflect.DeepEqual(local.EventCounts, res.EventCounts) ||
				!reflect.DeepEqual(local.BranchCounts, res.BranchCounts) {
				t.Log("faulty execution diverged under different sink timing — verdict comparison skipped")
				return
			}
			if out.Detected != local.Detected {
				t.Errorf("replayed Detected = %t, in-process %t", out.Detected, local.Detected)
			}
			if !reflect.DeepEqual(out.Violations, local.Violations) {
				t.Errorf("replayed violations differ\n in-process: %v\n replay:     %v", local.Violations, out.Violations)
			}
			if out.Stats.Events != local.MonitorStats.Events {
				t.Errorf("replayed %d events, in-process saw %d", out.Stats.Events, local.MonitorStats.Events)
			}
		})
	}
}

// rawFrame encodes one wire frame by hand (type, length, payload, CRC).
func rawFrame(typ byte, payload []byte) []byte {
	out := make([]byte, 0, len(payload)+9)
	out = append(out, typ)
	out = binary.LittleEndian.AppendUint32(out, uint32(len(payload)))
	out = append(out, payload...)
	tbl := crc32.MakeTable(crc32.Castagnoli)
	crc := crc32.Update(0, tbl, []byte{typ})
	crc = crc32.Update(crc, tbl, payload)
	return binary.LittleEndian.AppendUint32(out, crc)
}

// TestServerSurvivesHostileHellos: truncated, wrong-version, and
// oversize hello frames each kill only their own session — clean close,
// no panic, no goroutine leak, and the daemon keeps serving.
func TestServerSurvivesHostileHellos(t *testing.T) {
	before := runtime.NumGoroutine()
	addr, _ := startServer(t, ServerConfig{})

	// Wrong-version hello: valid CRC, magic, but version 99.
	var wrongVersion []byte
	wrongVersion = binary.LittleEndian.AppendUint32(wrongVersion, wire.Magic)
	wrongVersion = binary.AppendUvarint(wrongVersion, 99)        // version
	wrongVersion = binary.AppendUvarint(wrongVersion, 1)         // len("x")
	wrongVersion = append(wrongVersion, 'x')                     // program
	wrongVersion = binary.AppendUvarint(wrongVersion, uint64(4)) // threads
	wrongVersion = binary.AppendUvarint(wrongVersion, 0)         // plans

	cases := []struct {
		label string
		bytes []byte
	}{
		// Header claims 100 payload bytes; only 10 arrive before the close.
		{"truncated", append([]byte{1, 100, 0, 0, 0}, make([]byte, 10)...)},
		{"wrong-version", rawFrame(1, wrongVersion)},
		// Length prefix beyond MaxPayload: must be refused before any
		// payload is read or allocated.
		{"oversize", []byte{1, 0, 0, 0x40, 0}}, // 4 MiB length prefix
	}
	for _, tc := range cases {
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := conn.Write(tc.bytes); err != nil {
			t.Fatalf("%s: write: %v", tc.label, err)
		}
		// Half-close: truncation only becomes visible at EOF.
		conn.(*net.TCPConn).CloseWrite()
		// The server must close the session promptly: the next read ends
		// with EOF/reset instead of hanging.
		conn.SetReadDeadline(time.Now().Add(5 * time.Second))
		buf := make([]byte, 64)
		for {
			if _, err := conn.Read(buf); err != nil {
				break
			}
		}
		conn.Close()
	}

	// The daemon is still healthy: a real session works.
	mod, plans := kernelPlans(t, "fft")
	local := runInProcess(t, mod, plans, nil)
	remote := runRemote(t, addr, "fft", mod, plans, nil)
	compareRuns(t, "fft/after-hostile-hellos", local, remote)
	checkNoGoroutineLeak(t, before)
}

// TestServerMaxConnsReject: at the session limit the daemon sends a
// polite reject frame and closes; the slot frees when a session ends.
func TestServerMaxConnsReject(t *testing.T) {
	addr, srv := startServer(t, ServerConfig{MaxConns: 1, IdleTimeout: 30 * time.Second})

	// First connection occupies the only slot (registered by the accept
	// loop before it accepts the next connection, so ordering is fixed).
	hog, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}

	over, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	over.SetReadDeadline(time.Now().Add(5 * time.Second))
	f, err := wire.NewReader(over).ReadFrame()
	if err != nil {
		t.Fatalf("no reject frame: %v", err)
	}
	if f.Type != wire.FrameReject {
		t.Fatalf("frame type = %d, want FrameReject", f.Type)
	}
	if f.Reject == "" {
		t.Error("reject frame carries no reason")
	}
	over.Close()
	if got := srv.Rejected(); got != 1 {
		t.Errorf("Rejected() = %d, want 1", got)
	}

	// Freeing the slot lets a real session in.
	hog.Close()
	mod, plans := kernelPlans(t, "fft")
	deadline := time.Now().Add(5 * time.Second)
	for {
		client, err := Dial(addr, ClientConfig{Program: "fft", NumThreads: testThreads, Plans: plans})
		if err != nil {
			t.Fatal(err)
		}
		res, err := interp.Run(mod, interp.Options{
			Threads: testThreads, Mode: interp.MonitorActive, Plans: plans, Sink: client,
		})
		if err != nil {
			t.Fatal(err)
		}
		client.Close()
		if res.MonitorHealth == monitor.Healthy {
			break // slot was free
		}
		if time.Now().After(deadline) {
			t.Fatal("slot never freed after the hogging connection closed")
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestClientReportsRejectReason: a session the daemon refuses at its
// MaxConns limit ends degraded, and the client names the daemon's reason
// instead of failing open silently; a refusal that already fails Dial
// names it in Dial's error. Over tcp and a unix socket, with
// and without a spool (the spool path retries the finish and then
// seals, and must still keep the reason).
func TestClientReportsRejectReason(t *testing.T) {
	mod, plans := kernelPlans(t, "fft")
	for _, network := range []string{"tcp", "unix"} {
		for _, spooled := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/spool=%t", network, spooled), func(t *testing.T) {
				addr := "127.0.0.1:0"
				if network == "unix" {
					addr = filepath.Join(t.TempDir(), "d.sock")
				}
				ln, err := net.Listen(network, addr)
				if err != nil {
					t.Fatal(err)
				}
				srv := NewServer(ServerConfig{MaxConns: 1, IdleTimeout: 30 * time.Second})
				go srv.Serve(ln)
				defer srv.Close()
				hog, err := net.Dial(network, ln.Addr().String())
				if err != nil {
					t.Fatal(err)
				}
				defer hog.Close()
				// The accept loop registers the hog before it accepts the
				// next connection, so the client below is the one refused.

				target := ln.Addr().String()
				if network == "unix" {
					target = "unix:" + target
				}
				cfg := ClientConfig{Program: "fft", NumThreads: testThreads, Plans: plans}
				if spooled {
					cfg.SpoolPath = filepath.Join(t.TempDir(), "s.spool")
				}
				wantReason := func(what string, err error) {
					t.Helper()
					if !errors.Is(err, errRejected) || !strings.Contains(err.Error(), "daemon at capacity") {
						t.Errorf("%s = %v, want the daemon's at-capacity reject reason", what, err)
					}
				}
				client, err := Dial(target, cfg)
				if err != nil {
					// Refused before the hello was written: a startup
					// error, which must name the reason too.
					wantReason("Dial error", err)
					return
				}
				res, err := interp.Run(mod, interp.Options{
					Threads: testThreads, Mode: interp.MonitorActive, Plans: plans, Sink: client,
				})
				if err != nil {
					t.Fatal(err)
				}
				client.Close()
				if res.MonitorHealth != monitor.Degraded {
					t.Errorf("health = %s, want degraded", res.MonitorHealth)
				}
				wantReason("Err()", client.Err())
			})
		}
	}
}

// slowReadConn delays each Read, as a slow scheduler (the race
// detector's, say) can delay the read that follows readReject's
// deadline, and counts the reads.
type slowReadConn struct {
	net.Conn
	delay time.Duration
	reads *atomic.Int32
}

func (c slowReadConn) Read(p []byte) (int, error) {
	c.reads.Add(1)
	time.Sleep(c.delay)
	return c.Conn.Read(p)
}

// TestReadRejectSlowRead: the reject frame a daemon wrote before closing
// is found even when the read starts 5 ms after the look began. The look
// used to end 1 ms after it began, and under -race the read could start
// later than that (TestClientReportsRejectReason failed 2–3 of 60 runs).
// A daemon that closes without a frame ends the look at EOF, and a write
// that timed out (a daemon that has not closed) skips it.
func TestReadRejectSlowRead(t *testing.T) {
	const reason = "daemon at capacity (test)"
	for _, network := range []string{"tcp", "unix"} {
		addr := "127.0.0.1:0"
		if network == "unix" {
			addr = filepath.Join(t.TempDir(), "d.sock")
		}
		ln, err := net.Listen(network, addr)
		if err != nil {
			t.Fatal(err)
		}
		for _, tc := range []struct {
			name   string
			frame  bool
			cause  error
			reject bool
			reads  bool
		}{
			{"reject frame", true, io.ErrClosedPipe, true, true},
			{"close without a frame", false, io.ErrClosedPipe, false, true},
			{"write timeout", true, fmt.Errorf("write: %w", os.ErrDeadlineExceeded), false, false},
		} {
			served := make(chan struct{})
			go func() {
				defer close(served)
				conn, err := ln.Accept()
				if err != nil {
					return
				}
				if tc.frame {
					wr := wire.NewWriter(conn)
					if wr.WriteReject(reason) == nil {
						_ = wr.Sync()
					}
				}
				conn.Close()
			}()
			conn, err := net.Dial(network, ln.Addr().String())
			if err != nil {
				t.Fatal(err)
			}
			<-served
			var reads atomic.Int32
			c := &Client{}
			rej := c.readReject(slowReadConn{conn, 5 * time.Millisecond, &reads}, tc.cause)
			conn.Close()
			if got := rej != nil && errors.Is(rej, errRejected) && strings.Contains(rej.Error(), reason); got != tc.reject {
				t.Errorf("%s/%s: readReject = %v, want the reason: %t", network, tc.name, rej, tc.reject)
			}
			if got := reads.Load() > 0; got != tc.reads {
				t.Errorf("%s/%s: conn read %d times", network, tc.name, reads.Load())
			}
		}
		ln.Close()
	}
}

// TestDialUnreachableWithSpool: with a spool, a daemon that cannot be
// reached at Dial starts the session disconnected instead of failing it:
// the run completes degraded, the spool is sealed, and Err names the
// dial error.
func TestDialUnreachableWithSpool(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close() // nothing listens there now
	mod, plans := kernelPlans(t, "fft")
	client, err := Dial(addr, ClientConfig{Program: "fft", NumThreads: testThreads, Plans: plans,
		SpoolPath: filepath.Join(t.TempDir(), "s.spool")})
	if err != nil {
		t.Fatalf("Dial with a spool failed instead of starting disconnected: %v", err)
	}
	res, err := interp.Run(mod, interp.Options{
		Threads: testThreads, Mode: interp.MonitorActive, Plans: plans, Sink: client,
	})
	if err != nil {
		t.Fatal(err)
	}
	client.Close()
	if res.MonitorHealth != monitor.Degraded {
		t.Errorf("health = %s, want degraded", res.MonitorHealth)
	}
	if client.SealedSpool() == "" {
		t.Error("spool not sealed after the daemon never answered")
	}
	if err := client.Err(); err == nil || !strings.Contains(err.Error(), "refused") {
		t.Errorf("Err() = %v, want the dial error", err)
	}
}

// TestServerDrainLifecycle: Drain stops accepting immediately, reports
// draining, lets the reaper finish stale sessions, and ends closed.
func TestServerDrainLifecycle(t *testing.T) {
	addr, srv := startServer(t, ServerConfig{IdleTimeout: 200 * time.Millisecond})

	// A hello-less connection is a live session until the idle deadline
	// reaps it.
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	done := make(chan struct{})
	go func() { srv.Drain(10 * time.Second); close(done) }()

	// Draining: new connections must be refused (listener closed).
	deadline := time.Now().Add(5 * time.Second)
	for {
		c, err := net.DialTimeout("tcp", addr, 100*time.Millisecond)
		if err != nil {
			break
		}
		c.Close()
		if time.Now().After(deadline) {
			t.Fatal("listener still accepting while draining")
		}
		time.Sleep(5 * time.Millisecond)
	}

	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("Drain never returned (stale session not reaped)")
	}
	if srv.Draining() {
		t.Error("Draining() still true after drain completed (server is closed)")
	}
}

// TestListenCleansStaleSocket: a leftover socket file from a crashed
// daemon is removed; a live daemon's socket and a non-socket file are
// both refused.
func TestListenCleansStaleSocket(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bw.sock")

	// Simulate a crash: listener closed without unlinking its file.
	stale, err := net.Listen("unix", path)
	if err != nil {
		t.Fatal(err)
	}
	stale.(*net.UnixListener).SetUnlinkOnClose(false)
	stale.Close()
	if _, err := os.Stat(path); err != nil {
		t.Fatalf("stale socket file missing: %v", err)
	}

	ln, err := Listen("unix:" + path)
	if err != nil {
		t.Fatalf("Listen did not clean the stale socket: %v", err)
	}

	// The socket is now live: a second daemon must be refused.
	if _, err := Listen("unix:" + path); err == nil {
		t.Error("Listen bound over a live daemon's socket")
	}
	ln.Close()

	// A regular file at the path is never deleted.
	if err := os.WriteFile(path, []byte("precious"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Listen("unix:" + path); err == nil {
		t.Error("Listen bound over a regular file")
	}
	if data, err := os.ReadFile(path); err != nil || string(data) != "precious" {
		t.Errorf("Listen damaged a non-socket file: %q, %v", data, err)
	}
}

// TestClientWriteDeadlineOnStall: a daemon that stops consuming cannot
// block the sender — the per-frame write deadline trips, the client
// degrades, and the program completes (satellite: the old client armed
// only a read deadline for the result).
func TestClientWriteDeadlineOnStall(t *testing.T) {
	addr, _ := startServer(t, ServerConfig{})
	mod, plans := kernelPlans(t, "fft")

	ij := inject.NewNetInjector(inject.NetFaultPlan{
		Kind: inject.NetStall, AfterFrames: 3, Stall: 400 * time.Millisecond,
	})
	client, err := Dial(addr, ClientConfig{
		Program: "fft", NumThreads: testThreads, Plans: plans,
		WriteTimeout:  50 * time.Millisecond,
		ResultTimeout: 2 * time.Second,
		WrapConn:      ij.Wrap,
	})
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	res, err := interp.Run(mod, interp.Options{
		Threads: testThreads, Mode: interp.MonitorActive, Plans: plans, Sink: client,
	})
	if err != nil {
		t.Fatalf("program did not complete past the stalled write: %v", err)
	}
	client.Close()

	if !ij.Fired() {
		t.Fatalf("stall never fired (frames=%d)", ij.Frames())
	}
	if !res.Clean() {
		t.Errorf("program trapped: %+v", res.Traps)
	}
	if res.MonitorHealth != monitor.Degraded {
		t.Errorf("health = %v, want Degraded after a stalled write", res.MonitorHealth)
	}
	if elapsed := time.Since(start); elapsed > 30*time.Second {
		t.Errorf("run took %v — sender blocked on the stalled daemon", elapsed)
	}
}

// TestDialRetryBackoff: the constructor retries a daemon that comes up
// late, within its attempt budget.
func TestDialRetryBackoff(t *testing.T) {
	// Reserve an address, then free it so the first dial attempts fail.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()

	// Bring the daemon up shortly after the first failure.
	go func() {
		time.Sleep(50 * time.Millisecond)
		ln2, err := net.Listen("tcp", addr)
		if err != nil {
			return // port raced away; the dial below will fail the test
		}
		srv := NewServer(ServerConfig{})
		go srv.Serve(ln2)
	}()

	_, plans := kernelPlans(t, "fft")
	client, err := Dial(addr, ClientConfig{
		Program: "late", NumThreads: testThreads, Plans: plans,
		Retry: RetryConfig{Attempts: 20, BaseDelay: 10 * time.Millisecond, MaxDelay: 50 * time.Millisecond},
	})
	if err != nil {
		t.Fatalf("dial retry never reached the late daemon: %v", err)
	}
	client.Close()

	// Without retries, a dead address fails immediately.
	lnDead, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	deadAddr := lnDead.Addr().String()
	lnDead.Close()
	if _, err := Dial(deadAddr, ClientConfig{Program: "x", NumThreads: 1, Plans: plans}); err == nil {
		t.Error("dial to a dead daemon with no spool succeeded")
	}
}

// TestRetryBackoffSchedule: delays double from BaseDelay, cap at
// MaxDelay, and stay within the jitter envelope.
func TestRetryBackoffSchedule(t *testing.T) {
	rc := RetryConfig{
		Attempts: 8, BaseDelay: 10 * time.Millisecond,
		MaxDelay: 80 * time.Millisecond, Jitter: 0.2, Seed: 42,
	}.withDefaults()
	rng := rand.New(rand.NewSource(rc.Seed))
	for attempt := 1; attempt <= 8; attempt++ {
		ideal := rc.BaseDelay << (attempt - 1)
		if ideal > rc.MaxDelay || ideal <= 0 {
			ideal = rc.MaxDelay
		}
		d := rc.backoff(rng, attempt)
		lo := time.Duration(float64(ideal) * 0.8)
		hi := time.Duration(float64(ideal) * 1.2)
		if d < lo || d > hi {
			t.Errorf("attempt %d: backoff %v outside [%v, %v]", attempt, d, lo, hi)
		}
	}
}

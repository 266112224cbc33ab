package remote

import (
	"net"
	"testing"
	"time"

	"blockwatch/internal/core"
	"blockwatch/internal/monitor"
	"blockwatch/internal/wire"
)

var sessionPlans = map[int]*core.CheckPlan{
	1: {BranchID: 1, Kind: core.CheckShared, Reason: core.ReasonChecked},
}

// branchRun returns n shared-branch events of thread tid with Key2 from
// key2 on; thread 1's report of Key2 bad (if in the run) diverges.
func branchRun(tid int, key2, n int, bad int) []monitor.Event {
	evs := make([]monitor.Event, n)
	for k := range evs {
		sig := uint64(5)
		if tid == 1 && key2+k == bad {
			sig = 6
		}
		evs[k] = monitor.Event{Kind: monitor.EvBranch, Thread: int32(tid), BranchID: 1,
			Key1: 1000, Key2: uint64(key2 + k), Sig: sig, Taken: true}
	}
	return evs
}

// dialSession opens a session: it dials addr and sends the hello of a
// two-thread program.
func dialSession(t *testing.T, addr, program string) (net.Conn, *wire.Writer) {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	w := wire.NewWriter(conn)
	if err := w.WriteHello(wire.HelloFromPlans(program, 2, sessionPlans)); err != nil {
		t.Fatal(err)
	}
	return conn, w
}

// lockstep writes a clean two-thread stream: n events and a flush per
// thread, in one generation, with thread 1 diverging at Key2 bad (-1:
// never).
func lockstep(t *testing.T, w *wire.Writer, n, bad int) {
	t.Helper()
	for tid := 0; tid < 2; tid++ {
		if err := w.WriteEvents(tid, branchRun(tid, 0, n, bad)); err != nil {
			t.Fatal(err)
		}
		if err := w.WriteFlush(tid, int32(tid)); err != nil {
			t.Fatal(err)
		}
	}
}

// finishSession sends both done markers and the finish frame, and reads
// the result frame within timeout.
func finishSession(t *testing.T, conn net.Conn, w *wire.Writer, timeout time.Duration) *wire.Result {
	t.Helper()
	defer conn.Close()
	for tid := 0; tid < 2; tid++ {
		if err := w.WriteDone(tid, int32(tid)); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.WriteFinish(); err != nil {
		t.Fatal(err)
	}
	if err := w.Sync(); err != nil {
		t.Fatal(err)
	}
	_ = conn.SetReadDeadline(time.Now().Add(timeout))
	f, err := wire.NewReader(conn).ReadFrame()
	if err != nil {
		t.Fatalf("no result frame within %v: %v", timeout, err)
	}
	if f.Type != wire.FrameResult {
		t.Fatalf("got frame type 0x%02x, want a result", f.Type)
	}
	return f.Result
}

// TestSessionGatedBacklogPastQueueCap: thread 0 runs 200 events past a
// barrier that thread 1 has not reached, more than QueueCap. The session
// force-closes the generation as the watchdog would instead of waiting
// for room, answers its finish frame with a degraded verdict that counts
// the forced close, and the server still shuts down. Blocking there for
// the other thread's flush — which comes after those events on the same
// connection — would never answer.
func TestSessionGatedBacklogPastQueueCap(t *testing.T) {
	ln, err := Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(ServerConfig{QueueCap: 64})
	go srv.Serve(ln)
	conn, w := dialSession(t, ln.Addr().String(), "backlog")
	for _, err := range []error{
		w.WriteEvents(0, branchRun(0, 0, 10, -1)),
		w.WriteFlush(0, 0),
		w.WriteEvents(0, branchRun(0, 10, 200, -1)),
		w.WriteEvents(1, branchRun(1, 0, 10, -1)),
		w.WriteFlush(1, 1),
	} {
		if err != nil {
			t.Fatal(err)
		}
	}
	res := finishSession(t, conn, w, 3*time.Second)
	if res.Health != monitor.Degraded || res.Stats.Watchdog != 1 || res.Detected() {
		t.Errorf("verdict: %s %+v detected %t; want degraded, one forced close, no violation",
			res.Health, res.Stats, res.Detected())
	}
	// Thread 1's ten reports arrived after their generation was forced
	// closed: quarantined, never mixed into the next one.
	if res.Stats.Events != 210 || res.Stats.Quarantined != 10 {
		t.Errorf("Events = %d, Quarantined = %d; want 210 and 10", res.Stats.Events, res.Stats.Quarantined)
	}
	closed := make(chan struct{})
	go func() {
		srv.Close()
		close(closed)
	}()
	select {
	case <-closed:
	case <-time.After(3 * time.Second):
		t.Fatal("Server.Close did not return")
	}
}

// TestCheckerPanicFailsSessionOpen: a panic inside one session's checker
// (an EventTap that panics at its fifth event) fails that session open —
// its result frame reports Failed with one panic — while a second session
// that is live on the same server at the time gets its normal verdict,
// and a third session afterwards is served as usual.
func TestCheckerPanicFailsSessionOpen(t *testing.T) {
	sessionTap = func(program string) func(*monitor.Event) {
		if program != "panicky" {
			return nil
		}
		n := 0
		return func(*monitor.Event) {
			if n++; n == 5 {
				panic("injected checker fault")
			}
		}
	}
	t.Cleanup(func() { sessionTap = nil })
	addr, srv := startServer(t, ServerConfig{})

	// The steady session is open, mid-stream, while the panicky one runs.
	steady, sw := dialSession(t, addr, "steady")
	if err := sw.WriteEvents(0, branchRun(0, 0, 16, -1)); err != nil {
		t.Fatal(err)
	}
	if err := sw.Sync(); err != nil {
		t.Fatal(err)
	}
	conn, w := dialSession(t, addr, "panicky")
	lockstep(t, w, 16, -1)
	res := finishSession(t, conn, w, 10*time.Second)
	if res.Health != monitor.Failed || res.Stats.Panics != 1 || res.Detected() {
		t.Errorf("panicky session: %s %+v detected %t; want failed, one panic, no violation",
			res.Health, res.Stats, res.Detected())
	}

	for _, err := range []error{
		sw.WriteFlush(0, 0),
		sw.WriteEvents(1, branchRun(1, 0, 16, 7)),
		sw.WriteFlush(1, 1),
	} {
		if err != nil {
			t.Fatal(err)
		}
	}
	res = finishSession(t, steady, sw, 10*time.Second)
	if res.Health != monitor.Healthy || len(res.Violations) != 1 || res.Violations[0].Key2 != 7 || res.Stats.Panics != 0 {
		t.Errorf("steady session: %s %+v %v; want healthy with the one violation at Key2 7", res.Health, res.Stats, res.Violations)
	}

	conn, w = dialSession(t, addr, "after")
	lockstep(t, w, 16, -1)
	res = finishSession(t, conn, w, 10*time.Second)
	if res.Health != monitor.Healthy || res.Detected() || res.Stats.Events != 32 {
		t.Errorf("session after the panic: %s %+v detected %t; want healthy, 32 events, no violation",
			res.Health, res.Stats, res.Detected())
	}
	if got := srv.Sessions(); got != 3 {
		t.Errorf("server handled %d sessions, want 3", got)
	}
}

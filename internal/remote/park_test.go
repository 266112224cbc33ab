package remote

import (
	"testing"
	"time"

	"blockwatch/internal/core"
	"blockwatch/internal/metrics"
	"blockwatch/internal/monitor"
)

// TestParkedClientRelayFlushesCoalescedFrame: a small batch sits in the
// client's coalescer, below the byte budget, and the program goes quiet.
// The client relay parks, but the stream's linger duty must wake it to
// flush the frame to the daemon while the program stays quiet. A relay
// parked without that timer would hold the frame until Close.
func TestParkedClientRelayFlushesCoalescedFrame(t *testing.T) {
	srvReg, cliReg := metrics.NewRegistry(), metrics.NewRegistry()
	addr, _ := startServer(t, ServerConfig{Metrics: srvReg})
	// The daemon's session monitor counts the events it drains.
	received := func() uint64 {
		v, _ := srvReg.Snapshot().Counter("bw_monitor_events_total")
		return v
	}
	plans := map[int]*core.CheckPlan{1: {BranchID: 1, Kind: core.CheckShared, Reason: core.ReasonChecked}}
	client, err := Dial(addr, ClientConfig{Program: "park", NumThreads: 2, Plans: plans, Metrics: cliReg})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	client.Start()

	s := client.Sender(0)
	const n = 4
	for k := 0; k < n; k++ {
		s.Send(monitor.Event{Kind: monitor.EvBranch, Thread: 0, BranchID: 1, Key1: 1, Key2: uint64(k), Sig: 5})
	}
	s.Flush()
	sent := time.Now()
	deadline := sent.Add(30 * time.Second)
	for received() < n {
		if time.Now().After(deadline) {
			t.Fatal("coalesced frame never reached the daemon while the program was quiet")
		}
		time.Sleep(100 * time.Microsecond)
	}
	t.Logf("coalesced frame arrived %v after the flush (linger %v)", time.Since(sent), coalesceLinger)
	if v, _ := cliReg.Snapshot().Counter("bw_relay_parks_total"); v == 0 {
		t.Error("client relay never parked while the frame lingered")
	}

	for tid := 0; tid < 2; tid++ {
		client.Sender(tid).Send(monitor.Event{Kind: monitor.EvDone, Thread: int32(tid)})
	}
	client.Close()
	if h := client.Health(); h != monitor.Healthy {
		t.Errorf("health = %v, want Healthy", h)
	}
	if got := client.Stats().Events; got != n {
		t.Errorf("daemon accepted %d events, want %d", got, n)
	}
}

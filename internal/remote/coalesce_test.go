package remote

import (
	"fmt"
	"testing"

	"blockwatch/internal/core"
	"blockwatch/internal/inject"
	"blockwatch/internal/interp"
	"blockwatch/internal/ir"
	"blockwatch/internal/metrics"
	"blockwatch/internal/monitor"
)

// runRemoteCfg is runRemote with a caller-shaped ClientConfig (the
// coalescing tests vary CoalesceBytes; cfg.Program/NumThreads/Plans are
// filled in here).
func runRemoteCfg(t testing.TB, addr, name string, mod *ir.Module, plans map[int]*core.CheckPlan, fault *inject.Fault, cfg ClientConfig) *interp.Result {
	t.Helper()
	cfg.Program, cfg.NumThreads, cfg.Plans = name, testThreads, plans
	client, err := Dial(addr, cfg)
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

// TestCoalescingMatchesInProcess sweeps coalescing budgets — disabled,
// tiny (flushing almost every relay batch), default, and large — and
// requires the byte-identical-verdict contract to hold for every one,
// clean and under an injected fault. Frame boundaries are the only thing
// coalescing may change.
func TestCoalescingMatchesInProcess(t *testing.T) {
	addr, _ := startServer(t, ServerConfig{})
	mod, plans := kernelPlans(t, "fft")
	clean := runInProcess(t, mod, plans, nil)
	if clean.Detected {
		t.Fatal("clean run detected a violation (false positive)")
	}
	fault := &inject.Fault{Type: inject.BranchFlip, Thread: 1, Seq: clean.BranchCounts[1] / 2}
	faulty := runInProcess(t, mod, plans, fault)

	for _, budget := range []int{-1, 64, 0, 1 << 16} {
		label := fmt.Sprintf("budget=%d", budget)
		cfg := ClientConfig{CoalesceBytes: budget}
		compareRuns(t, label+"/clean", clean, runRemoteCfg(t, addr, "fft", mod, plans, nil, cfg))
		compareRuns(t, label+"/fault", faulty, runRemoteCfg(t, addr, "fft", mod, plans, fault, cfg))
	}
}

// TestCoalescingReducesFrames pins the point of the coalescer: against
// two daemons with separate metric registries, the same program must
// reach the server in strictly fewer wire frames when coalescing is on
// than with it disabled — with the verdict (asserted Healthy and
// violation-free on both sides by compareRuns) unchanged.
func TestCoalescingReducesFrames(t *testing.T) {
	rxFrames := func(coalesceBytes int) uint64 {
		reg := metrics.NewRegistry()
		addr, _ := startServer(t, ServerConfig{Metrics: reg})
		mod, plans := kernelPlans(t, "fft")
		local := runInProcess(t, mod, plans, nil)
		remote := runRemoteCfg(t, addr, "fft", mod, plans, nil, ClientConfig{CoalesceBytes: coalesceBytes})
		compareRuns(t, fmt.Sprintf("coalesce=%d", coalesceBytes), local, remote)
		return reg.Counter("bw_wire_rx_frames_total", "frames decoded from the wire or trace").Value()
	}
	off := rxFrames(-1)
	on := rxFrames(0)
	if on >= off {
		t.Errorf("coalescing did not reduce frames: %d with coalescing, %d without", on, off)
	}
}

// TestCoalescingFlushesBeforeControl: with an effectively unbounded
// budget the byte trigger never fires, so a lone batch reaches the
// daemon only because control markers (and the finish protocol, and the
// relay's idle hook) flush the coalescer first. A session that never
// fills its budget must still check everything.
func TestCoalescingFlushesBeforeControl(t *testing.T) {
	addr, _ := startServer(t, ServerConfig{})
	plans := map[int]*core.CheckPlan{
		1: {BranchID: 1, Kind: core.CheckShared, Reason: core.ReasonChecked},
	}
	client, err := Dial(addr, ClientConfig{
		Program: "idle", NumThreads: 1, Plans: plans,
		CoalesceBytes: maxCoalesceBytes,
	})
	if err != nil {
		t.Fatal(err)
	}
	client.Start()
	s := client.Sender(0)
	s.Send(monitor.Event{Kind: monitor.EvBranch, Thread: 0, BranchID: 1, Key1: 1, Key2: 1, Sig: 5, Taken: true})
	s.Flush()
	s.Send(monitor.Event{Kind: monitor.EvDone, Thread: 0})
	client.Close()
	if client.Health() != monitor.Healthy {
		t.Errorf("health = %v, want Healthy", client.Health())
	}
	if got := client.Stats().Events; got != 1 {
		t.Errorf("daemon checked %d events, want 1", got)
	}
}

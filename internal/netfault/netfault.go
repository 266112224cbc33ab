package netfault

import (
	"errors"
	"fmt"
	"math/rand"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"blockwatch/internal/core"
	"blockwatch/internal/inject"
	"blockwatch/internal/interp"
	"blockwatch/internal/ir"
	"blockwatch/internal/monitor"
	"blockwatch/internal/remote"
	"blockwatch/internal/trace"
)

// Outcome classifies one run of a network-fault campaign.
type Outcome int

// Outcomes of a network-faulted run. The last three are contract
// violations: the self-healing transport promises they never happen.
const (
	// NotActivated: the sampled frame index exceeded the run's actual
	// frame count (frame timing is scheduling-dependent), so the fault
	// never fired.
	NotActivated Outcome = iota + 1
	// Absorbed: the fault fired but the session never had to reconnect
	// (e.g. a stall within tolerance), and the verdict is identical to
	// the in-process run.
	Absorbed
	// Recovered: the fault fired, the client reconnected and replayed
	// the spool, and the verdict is identical to the in-process run.
	Recovered
	// Sealed: the daemon never delivered a verdict; the sealed spool
	// replays offline to the identical verdict.
	Sealed
	// Divergent: the (program-)faulty execution itself diverged under
	// different sink timing; verdicts are not comparable (same guard as
	// the remote loopback tests).
	Divergent
	// CoverageLost: spooling disabled; the run completed degraded with
	// the verdict lost — fail-open held, self-healing was off.
	CoverageLost
	// VerdictLost: the verdict differs despite spooling. Contract
	// violation.
	VerdictLost
	// Hang: the monitored program hung. Contract violation.
	Hang
	// Crash: the run errored or panicked. Contract violation.
	Crash
)

// String names the outcome.
func (o Outcome) String() string {
	switch o {
	case NotActivated:
		return "not-activated"
	case Absorbed:
		return "absorbed"
	case Recovered:
		return "recovered"
	case Sealed:
		return "spool-sealed"
	case Divergent:
		return "divergent"
	case CoverageLost:
		return "coverage-lost"
	case VerdictLost:
		return "VERDICT-LOST"
	case Hang:
		return "HANG"
	case Crash:
		return "CRASH"
	}
	return fmt.Sprintf("Outcome(%d)", int(o))
}

// Campaign runs a network-fault campaign against one program: an
// in-process reference run, a clean remote profiling run (to size the
// frame-index sampling space), then Faults injected runs, each through
// its own freshly wrapped connection to a campaign-owned daemon.
//
// Fault plans are pre-sampled from Seed, so the injected fault list is
// deterministic; per-run frame timing is scheduling-dependent (batch
// boundaries move), so the outcome tally may shift between NotActivated
// and the active classes across runs — what must hold at any worker
// count is the contract: zero VerdictLost, zero Hang, zero Crash.
type Campaign struct {
	// Module and Plans are the compiled program and its check plans
	// (both required — the transport only exists under protection).
	Module *ir.Module
	Plans  map[int]*core.CheckPlan
	// Threads is the SPMD thread count.
	Threads int
	// Faults is the number of injected runs.
	Faults int
	// Kinds are the fault models to sample from (nil = all four).
	Kinds []inject.NetFaultKind
	// Seed makes the sampled fault list reproducible; Seed0 seeds the
	// interpreter (golden and faulty runs must match).
	Seed  int64
	Seed0 uint64
	// Transport is "tcp" (default) or "unix".
	Transport string
	// DisableSpool turns self-healing off: runs fall back to the plain
	// fail-open client (verdicts may be lost, classified CoverageLost).
	DisableSpool bool
	// ProgramFault, when non-nil, additionally injects this program-level
	// fault into the reference run and every faulty run, exercising the
	// transport under detection traffic.
	ProgramFault *inject.Fault
	// Stall is the NetStall delay (0 = 4 × WriteTimeout).
	Stall time.Duration
	// WriteTimeout is the client per-write deadline (0 = 25ms).
	WriteTimeout time.Duration
	// StepFactor bounds faulty runs like inject.Campaign.StepFactor
	// (0 = 8).
	StepFactor uint64
	// Workers is the number of injected runs executed concurrently
	// (0 = GOMAXPROCS).
	Workers int
}

// RunInfo records one injected run.
type RunInfo struct {
	Plan    inject.NetFaultPlan
	Outcome Outcome
}

// Result aggregates a network-fault campaign.
type Result struct {
	Injected   int
	Fired      int
	Reconnects int // total successful reconnects across runs
	Counts     map[Outcome]int
	PerKind    map[inject.NetFaultKind]map[Outcome]int
	Runs       []RunInfo
	Elapsed    time.Duration
}

// ContractViolations counts outcomes the self-healing contract forbids.
func (r *Result) ContractViolations() int {
	return r.Counts[VerdictLost] + r.Counts[Hang] + r.Counts[Crash]
}

// Errors returned by Campaign.Run.
var (
	ErrNoFaults     = errors.New("netfault: campaign needs a positive fault count")
	ErrNeedsPlans   = errors.New("netfault: campaign requires check plans (Plans)")
	ErrBadTransport = errors.New("netfault: transport must be tcp or unix")
	errNoFrames     = errors.New("netfault: profiling run wrote no frames")
	errProfDiverged = errors.New("netfault: profiling run diverged from the in-process reference")
)

// Run executes the campaign.
func (c Campaign) Run() (*Result, error) {
	if c.Faults < 1 {
		return nil, ErrNoFaults
	}
	if c.Plans == nil {
		return nil, ErrNeedsPlans
	}
	kinds := c.Kinds
	if len(kinds) == 0 {
		kinds = []inject.NetFaultKind{inject.NetDrop, inject.NetPartial, inject.NetStall, inject.NetFlip}
	}
	writeTimeout := c.WriteTimeout
	if writeTimeout <= 0 {
		writeTimeout = 25 * time.Millisecond
	}
	stall := c.Stall
	if stall <= 0 {
		stall = 4 * writeTimeout
	}
	stepFactor := c.StepFactor
	if stepFactor == 0 {
		stepFactor = 8
	}

	tmpDir, err := os.MkdirTemp("", "bw-netfault-*")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(tmpDir)

	// Campaign-owned daemon. Sessions are isolated, so every injected
	// run (and its reconnects) shares it. The idle timeout reaps
	// sessions wedged by a corrupted length prefix.
	srv := remote.NewServer(remote.ServerConfig{IdleTimeout: 5 * time.Second})
	var ln net.Listener
	switch c.Transport {
	case "", "tcp":
		ln, err = net.Listen("tcp", "127.0.0.1:0")
	case "unix":
		ln, err = net.Listen("unix", filepath.Join(tmpDir, "bw.sock"))
	default:
		return nil, fmt.Errorf("%w: %q", ErrBadTransport, c.Transport)
	}
	if err != nil {
		return nil, err
	}
	addr := c.Transport
	if addr == "" {
		addr = "tcp"
	}
	addr += ":" + ln.Addr().String()
	go srv.Serve(ln)
	defer srv.Close()

	// Reference run: the ordinary in-process monitor, same program
	// fault if any.
	ref, err := c.runInProcess()
	if err != nil {
		return nil, fmt.Errorf("reference run: %w", err)
	}
	stepLimit := sumSteps(ref) * stepFactor

	// Profiling run: one clean remote session counts the frames a
	// typical session writes, sizing the AfterFrames sampling space.
	profiler := inject.NewNetInjector(inject.NetFaultPlan{})
	profRes, _, err := c.runRemote(addr, stepLimit, writeTimeout, profiler, filepath.Join(tmpDir, "profile.bwspool"))
	if err != nil {
		return nil, fmt.Errorf("profiling run: %w", err)
	}
	if !sameStream(profRes, ref) {
		// The clean remote run must match the reference exactly; anything
		// else means the harness itself is broken.
		return nil, errProfDiverged
	}
	frameSpace := profiler.Frames()
	if frameSpace == 0 {
		return nil, errNoFrames
	}

	// Pre-sample the fault list.
	rng := rand.New(rand.NewSource(c.Seed))
	plans := make([]inject.NetFaultPlan, c.Faults)
	for i := range plans {
		plans[i] = inject.NetFaultPlan{
			Kind:        kinds[rng.Intn(len(kinds))],
			AfterFrames: 1 + uint64(rng.Int63n(int64(frameSpace))),
			Bit:         uint(rng.Intn(1 << 16)),
			Stall:       stall,
		}
	}

	workers := c.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(plans) {
		workers = len(plans)
	}

	start := time.Now()
	outcomes := make([]Outcome, len(plans))
	reconnects := make([]int, len(plans))
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(plans) {
					return
				}
				out, rc := c.runInjected(addr, stepLimit, writeTimeout, plans[i], ref,
					filepath.Join(tmpDir, fmt.Sprintf("run-%04d.bwspool", i)))
				outcomes[i] = out
				reconnects[i] = rc
			}
		}()
	}
	wg.Wait()

	res := &Result{
		Counts:  make(map[Outcome]int),
		PerKind: make(map[inject.NetFaultKind]map[Outcome]int),
		Elapsed: time.Since(start),
	}
	for i, out := range outcomes {
		res.Injected++
		if out != NotActivated {
			res.Fired++
		}
		res.Reconnects += reconnects[i]
		res.Counts[out]++
		pk := res.PerKind[plans[i].Kind]
		if pk == nil {
			pk = make(map[Outcome]int)
			res.PerKind[plans[i].Kind] = pk
		}
		pk[out]++
		res.Runs = append(res.Runs, RunInfo{Plan: plans[i], Outcome: out})
	}
	return res, nil
}

func (c Campaign) runInProcess() (*interp.Result, error) {
	opts := interp.Options{
		Threads: c.Threads, Mode: interp.MonitorActive, Plans: c.Plans, Seed: c.Seed0,
	}
	if c.ProgramFault != nil {
		opts.Fault = inject.NewSingle(*c.ProgramFault)
	}
	return interp.Run(c.Module, opts)
}

// runRemote executes one monitored run through the campaign daemon with
// the given injector wrapping every connection.
func (c Campaign) runRemote(addr string, stepLimit uint64, writeTimeout time.Duration, ij *inject.NetInjector, spoolPath string) (*interp.Result, *remote.Client, error) {
	cfg := remote.ClientConfig{
		Program:       "netfault",
		NumThreads:    c.Threads,
		Plans:         c.Plans,
		WriteTimeout:  writeTimeout,
		ResultTimeout: 2 * time.Second,
		WrapConn:      ij.Wrap,
		Retry: remote.RetryConfig{
			Attempts:    4,
			BaseDelay:   time.Millisecond,
			MaxDelay:    20 * time.Millisecond,
			DialTimeout: time.Second,
			Seed:        c.Seed + 1,
		},
	}
	if !c.DisableSpool {
		cfg.SpoolPath = spoolPath
	}
	client, err := remote.Dial(addr, cfg)
	if err != nil {
		return nil, nil, err
	}
	opts := interp.Options{
		Threads: c.Threads, Mode: interp.MonitorActive, Plans: c.Plans,
		Seed: c.Seed0, StepLimit: stepLimit, Sink: client,
	}
	if c.ProgramFault != nil {
		opts.Fault = inject.NewSingle(*c.ProgramFault)
	}
	res, err := interp.Run(c.Module, opts)
	if err != nil {
		return nil, client, err
	}
	return res, client, nil
}

// runInjected executes and classifies one injected run.
func (c Campaign) runInjected(addr string, stepLimit uint64, writeTimeout time.Duration, plan inject.NetFaultPlan, ref *interp.Result, spoolPath string) (Outcome, int) {
	ij := inject.NewNetInjector(plan)
	res, client, err := c.runRemote(addr, stepLimit, writeTimeout, ij, spoolPath)
	rc := 0
	if client != nil {
		rc = client.Reconnects()
	}
	defer os.Remove(spoolPath) // sealed spools included: classified below, then cleaned up
	if err != nil {
		return Crash, rc
	}
	if res.Hung() {
		return Hang, rc
	}
	if res.Crashed() {
		return Crash, rc
	}
	if !sameStream(res, ref) {
		return Divergent, rc
	}
	if sealed := client.SealedSpool(); sealed != "" {
		// No daemon verdict: the offline replay of the sealed spool must
		// reproduce the reference verdict.
		f, err := os.Open(sealed)
		if err != nil {
			return VerdictLost, rc
		}
		out, err := trace.Replay(f, trace.ReplayConfig{})
		f.Close()
		if err != nil || out.Detected != ref.Detected || !sameViolations(out.Violations, ref.Violations) {
			return VerdictLost, rc
		}
		return Sealed, rc
	}
	match := res.Detected == ref.Detected && sameViolations(res.Violations, ref.Violations)
	if !match {
		if c.DisableSpool && res.MonitorHealth != monitor.Healthy {
			return CoverageLost, rc
		}
		return VerdictLost, rc
	}
	if !ij.Fired() {
		return NotActivated, rc
	}
	if rc > 0 {
		return Recovered, rc
	}
	return Absorbed, rc
}

// sameStream reports whether two runs executed identically (the guard
// the remote loopback tests use before comparing verdicts).
func sameStream(a, b *interp.Result) bool {
	return sameCounts(a.EventCounts, b.EventCounts) && sameCounts(a.BranchCounts, b.BranchCounts)
}

func sameCounts(a, b []uint64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func sameViolations(a, b []monitor.Violation) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func sumSteps(ref *interp.Result) uint64 {
	var total uint64
	for _, n := range ref.BranchCounts {
		total += n
	}
	return total * 64
}

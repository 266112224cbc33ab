// Package blockwatch is a from-scratch reproduction of "BLOCKWATCH:
// Leveraging Similarity in Parallel Programs for Error Detection"
// (Wei & Pattabiraman, DSN 2012).
//
// BLOCKWATCH protects SPMD parallel programs from transient hardware
// faults in control data: a static analysis classifies every branch of
// the program's parallel section into the similarity categories shared /
// threadID / partial / none (paper Table I), and a lock-free runtime
// monitor cross-checks branch outcomes against the inferred similarity,
// with zero false positives by construction.
//
// This package is the high-level facade. A typical session:
//
//	prog, err := blockwatch.Compile(src, "myprogram")
//	report, err := prog.Analyze(blockwatch.AnalysisOptions{})
//	run, err := prog.Run(blockwatch.RunOptions{Threads: 4, Protect: true})
//	camp, err := prog.Campaign(blockwatch.CampaignOptions{Threads: 4, Faults: 1000})
//
// Programs are written in MiniC, a small SPMD language (see the README
// and internal/lang): shared globals, per-thread slave(), tid()/
// nthreads()/barrier()/lock() builtins. The seven SPLASH-2 evaluation
// kernels from the paper are available via Benchmarks and
// LoadBenchmark.
package blockwatch

import (
	"fmt"
	"io"
	"sort"
	"time"

	"blockwatch/internal/core"
	"blockwatch/internal/inject"
	"blockwatch/internal/interp"
	"blockwatch/internal/ir"
	"blockwatch/internal/lower"
	"blockwatch/internal/metrics"
	"blockwatch/internal/monitor"
	"blockwatch/internal/netfault"
	"blockwatch/internal/opt"
	"blockwatch/internal/remote"
	"blockwatch/internal/splash"
	"blockwatch/internal/trace"
)

// Program is a compiled MiniC SPMD program.
type Program struct {
	name string
	mod  *ir.Module
}

// Compile parses, type-checks and lowers MiniC source to SSA form.
func Compile(src, name string) (*Program, error) {
	mod, err := lower.Compile(src, name)
	if err != nil {
		return nil, err
	}
	if err := lower.CheckSPMD(mod); err != nil {
		return nil, err
	}
	return &Program{name: name, mod: mod}, nil
}

// Benchmarks returns the names of the seven bundled SPLASH-2 kernels in
// the paper's Table IV order.
func Benchmarks() []string { return splash.Names() }

// LoadBenchmark compiles one of the bundled SPLASH-2 kernels.
func LoadBenchmark(name string) (*Program, error) {
	mod, err := splash.Load(name)
	if err != nil {
		return nil, err
	}
	return &Program{name: name, mod: mod}, nil
}

// BenchmarkSource returns the MiniC source of a bundled kernel.
func BenchmarkSource(name string) (string, error) {
	p, err := splash.Get(name)
	if err != nil {
		return "", err
	}
	return p.Source, nil
}

// Name returns the program name.
func (p *Program) Name() string { return p.name }

// OptimizeStats reports what Program.Optimize did.
type OptimizeStats struct {
	Folded     int
	Simplified int
	CSE        int
	Dead       int
}

// Optimize runs the SSA optimization pipeline (constant folding, local
// CSE, dead-code elimination) on the program in place. Check plans from
// Analyze calls made before Optimize must not be reused afterwards.
func (p *Program) Optimize() OptimizeStats {
	st := opt.Optimize(p.mod)
	return OptimizeStats{
		Folded:     st.Folded,
		Simplified: st.Simplified,
		CSE:        st.CSE,
		Dead:       st.Dead,
	}
}

// DumpIR returns the program's SSA IR as text.
func (p *Program) DumpIR() string { return p.mod.String() }

// AnalysisOptions configures the similarity analysis.
type AnalysisOptions struct {
	// MaxNest caps the loop-nesting depth of instrumented branches
	// (0 = the paper's default of 6; negative = unlimited).
	MaxNest int
	// DisablePromotion turns off the none→partial promotion optimization.
	DisablePromotion bool
	// DisableCriticalElision turns off check removal in critical sections.
	DisableCriticalElision bool
	// DedupRedundant enables the Section VI redundant-check elimination.
	DedupRedundant bool
	// DisableUniform turns off the uniform-loop extension.
	DisableUniform bool
}

func (o AnalysisOptions) toCore() core.Options {
	return core.Options{
		MaxNest:                o.MaxNest,
		DisablePromotion:       o.DisablePromotion,
		DisableCriticalElision: o.DisableCriticalElision,
		DedupRedundant:         o.DedupRedundant,
		DisableUniform:         o.DisableUniform,
	}
}

// BranchReport describes one analyzed branch.
type BranchReport struct {
	BranchID int
	Line     int    // source line of the condition
	Category string // shared | threadID | partial | none
	Checked  bool
	Promoted bool   // none branch promoted to a partial check
	Uniform  bool   // loop header upgraded by the uniform-trip proof
	Why      string // reason when unchecked
}

// Report is the outcome of the static analysis.
type Report struct {
	Program          string
	Iterations       int
	TotalBranches    int
	ParallelBranches int
	PerCategory      map[string]int
	SimilarFraction  float64
	Checked          int
	Branches         []BranchReport

	analysis *core.Analysis
}

// Analyze runs the BLOCKWATCH static analysis on the program's parallel
// section.
func (p *Program) Analyze(opts AnalysisOptions) (*Report, error) {
	a, err := core.Analyze(p.mod, opts.toCore())
	if err != nil {
		return nil, err
	}
	st := a.Stats()
	rep := &Report{
		Program:          p.name,
		Iterations:       a.Iterations,
		TotalBranches:    st.TotalBranches,
		ParallelBranches: st.ParallelBranches,
		PerCategory:      make(map[string]int, 4),
		SimilarFraction:  st.SimilarFraction(),
		Checked:          st.Checked,
		analysis:         a,
	}
	for cat, n := range st.PerCategory {
		rep.PerCategory[cat.String()] = n
	}
	ids := make([]int, 0, len(a.Plans))
	for id := range a.Plans {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	for _, id := range ids {
		plan := a.Plans[id]
		br := BranchReport{
			BranchID: id,
			Line:     plan.Br.SrcLine,
			Category: plan.Category.String(),
			Checked:  plan.Checked(),
			Promoted: plan.Promoted,
			Uniform:  plan.Uniform,
		}
		switch plan.Reason {
		case core.ReasonNone:
			br.Why = "no similarity (promotion disabled)"
		case core.ReasonCritical:
			br.Why = "inside critical section"
		case core.ReasonTooDeep:
			br.Why = "loop nesting beyond cap"
		case core.ReasonRedundant:
			br.Why = "condition already checked"
		case core.ReasonSerial:
			br.Why = "outside parallel section"
		}
		rep.Branches = append(rep.Branches, br)
	}
	return rep, nil
}

// OverflowPolicy selects what the monitor does when a thread's event
// queue is full (the fail-open resilience layer; see docs/internals.md).
// Dropping loses coverage, never soundness: every check rule is
// subset-closed, so surviving reports still check validly.
type OverflowPolicy int

// Overflow policies.
const (
	// OverflowBlock parks the producing thread until the queue has room
	// (lossless, default).
	OverflowBlock OverflowPolicy = iota
	// OverflowDropNewest drops the new branch event when the queue is full.
	OverflowDropNewest
	// OverflowBlockTimeout spins a bounded number of times, then drops.
	OverflowBlockTimeout
)

func (p OverflowPolicy) toMonitor() monitor.OverflowPolicy {
	switch p {
	case OverflowDropNewest:
		return monitor.OverflowDropNewest
	case OverflowBlockTimeout:
		return monitor.OverflowBlockTimeout
	}
	return monitor.OverflowBlock
}

// ParseOverflowPolicy parses the CLI names "block", "drop-newest" and
// "block-timeout".
func ParseOverflowPolicy(s string) (OverflowPolicy, error) {
	switch s {
	case "block", "":
		return OverflowBlock, nil
	case "drop-newest":
		return OverflowDropNewest, nil
	case "block-timeout":
		return OverflowBlockTimeout, nil
	}
	return 0, fmt.Errorf("unknown overflow policy %q (block | drop-newest | block-timeout)", s)
}

// String names the policy.
func (p OverflowPolicy) String() string { return p.toMonitor().String() }

// RunOptions configures one execution.
type RunOptions struct {
	// Threads is the SPMD thread count (≥ 1).
	Threads int
	// Protect instruments the program and runs the checking monitor.
	Protect bool
	// Analysis supplies a Report from this program's Analyze; nil means
	// analyze with defaults when Protect is set. Another program's Report
	// is an error.
	Analysis *Report
	// Seed perturbs the program's rnd() streams.
	Seed uint64
	// StepLimit bounds per-thread execution (0 = default).
	StepLimit uint64
	// Trace, when non-nil, receives one line per executed branch.
	Trace io.Writer
	// QueueCap overrides the monitor's per-thread queue capacity
	// (0 = default 4096).
	QueueCap int
	// Overflow selects the monitor's queue-overflow policy.
	Overflow OverflowPolicy
	// StallDeadline arms the monitor's stall watchdog: a barrier
	// generation that makes no progress for this long is force-closed
	// (0 = watchdog disabled).
	StallDeadline time.Duration
	// Remote, when non-empty, moves the checking monitor out of process:
	// events stream to a bwmonitord daemon at this address (host:port for
	// TCP, unix:/path or any path containing "/" for a unix socket) and
	// the verdict comes back in the result exchange. Implies Protect. The
	// client fails open: a dead or slow daemon degrades Health, never the
	// program. Mutually exclusive with Record.
	Remote string
	// RemoteRetry is the dial budget per outage for Remote runs: the
	// client retries failed dials with exponential backoff, and with a
	// spool it also reconnects mid-run (0 = 1: a single attempt).
	RemoteRetry int
	// RemoteSpool, when non-empty, makes a Remote run self-healing: every
	// outbound frame is also buffered to this on-disk file, reconnects
	// replay it into a fresh daemon session, and if the daemon never
	// delivers a verdict the file is sealed into a bwtrace-replayable
	// trace (see RunResult.SealedTrace).
	RemoteSpool string
	// Record, when non-nil, tees the monitor event stream to this writer
	// in the wire trace format while a checker on the recorder's relay
	// goroutine keeps checking it live (implies Protect). The sealed
	// trace replays to byte-identical violations (bwtrace replay).
	// StallDeadline is then evaluated as each batch reaches the checker,
	// as in a daemon session. Mutually exclusive with Remote.
	Record io.Writer
	// Metrics, when non-nil, attaches the run's monitor pipeline to this
	// registry (bw_monitor_*, and bw_relay_*/bw_wire_*/bw_remote_* for
	// Remote or Record runs). Metrics never change the verdict; every
	// handle is atomic, so one registry may aggregate many runs.
	Metrics *metrics.Registry
}

// NewMetricsRegistry returns a fresh metrics registry for RunOptions.Metrics
// or CampaignOptions.Metrics, re-exported so callers need not import the
// internal package.
func NewMetricsRegistry() *metrics.Registry { return metrics.NewRegistry() }

// RunResult is the outcome of one execution.
type RunResult struct {
	// Output is the program's deterministic output vector (raw 64-bit
	// values; ints and IEEE-754 float bits as produced by output()).
	Output []uint64
	// SimTime is the simulated cycle span of the parallel section.
	SimTime int64
	// Detected reports whether the monitor flagged a violation.
	Detected bool
	// Violations describes each detection.
	Violations []string
	// Crashed and Hung report abnormal termination.
	Crashed bool
	Hung    bool
	// Health is the monitor's fail-open state after the run: "healthy",
	// "degraded" (events dropped/quarantined or a watchdog fire — coverage
	// reduced, guarantees intact), or "failed" (monitor panic; the run
	// completed unchecked). Empty when the monitor was off.
	Health string
	// DroppedEvents counts branch events dropped by the overflow policy.
	DroppedEvents uint64
	// QuarantinedEvents counts malformed or straggler events skipped.
	QuarantinedEvents uint64
	// WatchdogFires counts generations force-closed by the stall watchdog.
	WatchdogFires uint64
	// RemoteReconnects counts successful mid-run reconnects of a Remote
	// session (spool replays into fresh daemon sessions).
	RemoteReconnects int
	// SealedTrace is the path of the sealed spool file when a Remote run
	// lost its daemon for good: the verdict was not delivered live, but
	// `bwtrace replay <SealedTrace>` reproduces it offline. Empty when
	// the verdict arrived normally.
	SealedTrace string
	// MonitorError says why a Remote run got no daemon verdict: the
	// daemon's reason when it refused the session (at capacity, another
	// codec version), else the transport error. Empty when the verdict
	// arrived.
	MonitorError string
}

// plans returns the check plans of rep, analyzing with defaults when rep
// is nil. A Report that this program's Analyze did not produce (another
// program's, or a zero Report) is an error: its plans index branches this
// program does not have.
func (p *Program) plans(rep *Report) (map[int]*core.CheckPlan, error) {
	if rep == nil {
		var err error
		if rep, err = p.Analyze(AnalysisOptions{}); err != nil {
			return nil, err
		}
	}
	if rep.analysis == nil || rep.analysis.Mod != p.mod {
		return nil, fmt.Errorf("analysis report was not produced by program %s's Analyze", p.name)
	}
	return rep.analysis.Plans, nil
}

// Run executes the program.
func (p *Program) Run(opts RunOptions) (*RunResult, error) {
	if opts.Remote != "" && opts.Record != nil {
		return nil, fmt.Errorf("Remote and Record are mutually exclusive (record locally or stream to a daemon, not both)")
	}
	if opts.Remote != "" || opts.Record != nil {
		opts.Protect = true
	}
	var remoteClient *remote.Client
	iopts := interp.Options{
		Threads:   opts.Threads,
		Seed:      opts.Seed,
		StepLimit: opts.StepLimit,
		Trace:     opts.Trace,
	}
	if opts.Protect {
		plans, err := p.plans(opts.Analysis)
		if err != nil {
			return nil, err
		}
		iopts.Mode = interp.MonitorActive
		iopts.Plans = plans
		switch {
		case opts.Remote != "":
			ccfg := remote.ClientConfig{
				Program:    p.name,
				NumThreads: opts.Threads,
				Plans:      iopts.Plans,
				QueueCap:   opts.QueueCap,
				Overflow:   opts.Overflow.toMonitor(),
				Metrics:    opts.Metrics,
				Retry:      remote.RetryConfig{Attempts: opts.RemoteRetry},
				SpoolPath:  opts.RemoteSpool,
			}
			client, err := remote.Dial(opts.Remote, ccfg)
			if err != nil {
				return nil, err
			}
			remoteClient = client
			iopts.Sink = client
		case opts.Record != nil:
			rec, err := trace.NewRecorder(opts.Record, trace.RecorderConfig{
				Program:       p.name,
				NumThreads:    opts.Threads,
				Plans:         iopts.Plans,
				QueueCap:      opts.QueueCap,
				Overflow:      opts.Overflow.toMonitor(),
				StallDeadline: opts.StallDeadline,
				Metrics:       opts.Metrics,
			})
			if err != nil {
				return nil, err
			}
			iopts.Sink = rec
		default:
			mon, err := monitor.New(monitor.Config{
				NumThreads:    opts.Threads,
				Plans:         plans,
				QueueCap:      opts.QueueCap,
				Overflow:      opts.Overflow.toMonitor(),
				StallDeadline: opts.StallDeadline,
				Metrics:       opts.Metrics,
			})
			if err != nil {
				return nil, fmt.Errorf("monitor: %w", err)
			}
			iopts.Sink = mon
		}
	}
	res, err := interp.Run(p.mod, iopts)
	if err != nil {
		// A config error returns before the interpreter starts the sink,
		// and a setup trap closes the started sink; Close is idempotent,
		// so closing here tears down the sink (and a remote client's
		// connection) on every error path.
		if iopts.Sink != nil {
			iopts.Sink.Close()
		}
		return nil, err
	}
	out := &RunResult{
		Output:   res.Output,
		SimTime:  res.SimTime,
		Detected: res.Detected,
		Crashed:  res.Crashed(),
		Hung:     res.Hung(),
	}
	if opts.Protect {
		out.Health = res.MonitorHealth.String()
		out.DroppedEvents = res.MonitorStats.Dropped
		out.QuarantinedEvents = res.MonitorStats.Quarantined
		out.WatchdogFires = res.MonitorStats.Watchdog
	}
	if remoteClient != nil {
		// interp.Run closed the sink, so the session is settled.
		out.RemoteReconnects = remoteClient.Reconnects()
		out.SealedTrace = remoteClient.SealedSpool()
		if err := remoteClient.Err(); err != nil {
			out.MonitorError = err.Error()
		}
	}
	for _, v := range res.Violations {
		out.Violations = append(out.Violations, v.String())
	}
	return out, nil
}

// Overhead measures the normalized execution time of the instrumented
// program (the paper's Figure 6/7 metric) at the given thread count.
func (p *Program) Overhead(threads int) (float64, error) {
	rep, err := p.Analyze(AnalysisOptions{})
	if err != nil {
		return 0, err
	}
	base, err := interp.Run(p.mod, interp.Options{Threads: threads})
	if err != nil {
		return 0, err
	}
	inst, err := interp.Run(p.mod, interp.Options{
		Threads: threads, Mode: interp.MonitorDrainOnly, Plans: rep.analysis.Plans,
	})
	if err != nil {
		return 0, err
	}
	if base.SimTime == 0 {
		return 1, nil
	}
	return float64(inst.SimTime) / float64(base.SimTime), nil
}

// FaultModel selects the injection fault type.
type FaultModel int

// Fault models (paper Section IV, plus the detector-under-fault model).
const (
	// BranchFlip flips the targeted branch outcome (flag-register fault).
	BranchFlip FaultModel = iota + 1
	// ConditionBit flips one bit of the branch condition data, with
	// persistence.
	ConditionBit
	// EventPath flips one bit of a queued monitor event's payload — a
	// fault in the detector itself rather than the program. Implies
	// Protect (the monitor must be active to have an event path) and the
	// flat monitor. The campaign result carries a Detector classification.
	EventPath
)

// CampaignOptions configures a fault-injection campaign.
type CampaignOptions struct {
	Threads int
	Faults  int
	Model   FaultModel // zero = BranchFlip
	Protect bool       // run with BLOCKWATCH checking
	Seed    int64
	// Analysis supplies a Report from this program's Analyze for
	// Protect (nil = analyze with defaults).
	Analysis *Report
	// Workers is the number of faulty runs executed concurrently
	// (0 = all cores, 1 = sequential). Every statistical field of
	// CampaignResult is identical for any worker count; only the
	// wall-clock Elapsed and Latency observability data vary.
	Workers int
	// Progress, when non-nil, receives periodic snapshots of the running
	// campaign. Callbacks are serialized but may arrive from worker
	// goroutines.
	Progress func(CampaignProgress)
	// Metrics, when non-nil, aggregates the monitor metrics of every
	// monitored run in the campaign (handles are atomic, so concurrent
	// workers share it safely). A branch-flip or branch-condition run
	// that starts from a barrier snapshot of a clean run counts only the
	// events after the snapshot, and the clean run the snapshots come
	// from is not counted. Deterministic campaign statistics are
	// unaffected.
	Metrics *metrics.Registry
}

// CampaignProgress is a live snapshot of a running campaign.
type CampaignProgress struct {
	// Injected is the number of faulty runs completed so far, out of
	// Total planned.
	Injected, Total int
	// Activated counts completed runs whose fault was reached.
	Activated int
	// Per-outcome counts so far.
	Benign, Detected, Crashed, Hung, SDC int
	// Elapsed is the wall-clock time since the injection phase started.
	Elapsed time.Duration
}

// LatencyStats aggregates wall-clock faulty-run durations for one outcome
// class. Latencies are machine-dependent observability data, not part of
// the deterministic campaign statistics.
type LatencyStats struct {
	Count           int
	Total, Min, Max time.Duration
}

// Mean returns the average duration (0 for an empty aggregate).
func (l LatencyStats) Mean() time.Duration {
	if l.Count == 0 {
		return 0
	}
	return l.Total / time.Duration(l.Count)
}

// CampaignResult summarizes a campaign.
type CampaignResult struct {
	Injected  int
	Activated int
	Benign    int
	Detected  int
	Crashed   int
	Hung      int
	SDC       int
	// Coverage is 1 − SDC/activated, the paper's metric.
	Coverage float64
	// Elapsed is the wall-clock time of the injection phase.
	Elapsed time.Duration
	// Latency aggregates per-outcome run durations, keyed by outcome name
	// ("benign", "detected", "crash", "hang", "sdc", "not-activated").
	// A protected branch-flip or condition-bit run ends at its first
	// detected violation, so its "detected" duration is its time to stop.
	Latency map[string]LatencyStats
	// Detector classifies detector-under-fault behavior; non-nil only for
	// EventPath campaigns.
	Detector *DetectorReport
}

// DetectorReport classifies how the detector behaved in an EventPath
// campaign, where the injected fault corrupts the monitor's own data and
// never touches program state.
type DetectorReport struct {
	// ProgramDetections counts detections accompanied by corrupted program
	// output (genuine program faults — structurally zero for EventPath).
	ProgramDetections int
	// DetectorDetections counts detections with clean program output:
	// false alarms induced by the corrupted event path.
	DetectorDetections int
	// QuarantinedRuns counts runs in which the monitor recognized and
	// absorbed the corruption (≥1 quarantined event).
	QuarantinedRuns int
	// DegradedRuns counts runs ending with monitor health ≠ healthy.
	DegradedRuns int
}

// Campaign runs the paper's Section IV fault-injection methodology on the
// program.
func (p *Program) Campaign(opts CampaignOptions) (*CampaignResult, error) {
	model := inject.BranchFlip
	switch opts.Model {
	case ConditionBit:
		model = inject.CondBit
	case EventPath:
		model = inject.EventBit
		opts.Protect = true // there is no unprotected event path
	}
	c := inject.Campaign{
		Module:  p.mod,
		Threads: opts.Threads,
		Faults:  opts.Faults,
		Type:    model,
		Seed:    opts.Seed,
		Workers: opts.Workers,
		Metrics: opts.Metrics,
	}
	if opts.Progress != nil {
		cb := opts.Progress
		c.Progress = func(ip inject.CampaignProgress) {
			cb(CampaignProgress{
				Injected:  ip.Injected,
				Total:     ip.Total,
				Activated: ip.Activated,
				Benign:    ip.Counts[inject.Benign],
				Detected:  ip.Counts[inject.Detected],
				Crashed:   ip.Counts[inject.Crash],
				Hung:      ip.Counts[inject.Hang],
				SDC:       ip.Counts[inject.SDC],
				Elapsed:   ip.Elapsed,
			})
		}
	}
	if opts.Protect {
		plans, err := p.plans(opts.Analysis)
		if err != nil {
			return nil, err
		}
		c.Plans = plans
	}
	res, err := c.Run()
	if err != nil {
		return nil, fmt.Errorf("campaign on %s: %w", p.name, err)
	}
	t := res.Tally
	out := &CampaignResult{
		Injected:  t.Injected,
		Activated: t.Activated,
		Benign:    t.Counts[inject.Benign],
		Detected:  t.Counts[inject.Detected],
		Crashed:   t.Counts[inject.Crash],
		Hung:      t.Counts[inject.Hang],
		SDC:       t.Counts[inject.SDC],
		Coverage:  t.Coverage(),
		Elapsed:   res.Elapsed,
		Latency:   make(map[string]LatencyStats, len(res.Latency)),
	}
	for outcome, ls := range res.Latency {
		out.Latency[outcome.String()] = LatencyStats{
			Count: ls.Count, Total: ls.Total, Min: ls.Min, Max: ls.Max,
		}
	}
	if res.Detector != nil {
		out.Detector = &DetectorReport{
			ProgramDetections:  res.Detector.ProgramDetections,
			DetectorDetections: res.Detector.DetectorDetections,
			QuarantinedRuns:    res.Detector.Quarantined,
			DegradedRuns:       res.Detector.Degraded,
		}
	}
	return out, nil
}

// NetFaultOptions configures a network-fault campaign against the
// out-of-process monitoring transport (bwinject -type net-fault).
type NetFaultOptions struct {
	Threads int
	// Faults is the number of injected runs (each gets one transport
	// fault: a connection drop, stall, partial write, or bit-flip at a
	// sampled wire-frame index).
	Faults int
	Seed   int64
	// Transport is "tcp" (default) or "unix".
	Transport string
	// DisableSpool turns the disk spillover off: the client is merely
	// fail-open and verdicts may be lost (classified "coverage-lost").
	DisableSpool bool
	// Workers is the number of injected runs executed concurrently
	// (0 = all cores).
	Workers int
	// Analysis supplies a Report from this program's Analyze (nil =
	// analyze with defaults). The campaign always runs protected.
	Analysis *Report
}

// NetFaultResult summarizes a network-fault campaign.
type NetFaultResult struct {
	Injected int
	// Fired counts runs whose transport fault actually triggered (frame
	// timing is scheduling-dependent, so a sampled index can fall past
	// the end of a given run's stream).
	Fired int
	// Reconnects totals successful mid-run reconnects across all runs.
	Reconnects int
	// Counts tallies runs per outcome name: "absorbed", "recovered",
	// "spool-sealed", "not-activated", "divergent", "coverage-lost",
	// "VERDICT-LOST", "HANG", "CRASH".
	Counts map[string]int
	// ContractViolations counts outcomes the self-healing contract
	// forbids (lost verdicts, hangs, crashes) — zero on a healthy build.
	ContractViolations int
	Elapsed            time.Duration
}

// NetFaultCampaign injects deterministic transport faults into remote
// monitoring sessions of this program and verifies the self-healing
// contract: the program never hangs or crashes, corrupted frames are
// caught by CRC, and the verdict is recovered live or sealed for offline
// replay — never silently lost.
func (p *Program) NetFaultCampaign(opts NetFaultOptions) (*NetFaultResult, error) {
	plans, err := p.plans(opts.Analysis)
	if err != nil {
		return nil, err
	}
	c := netfault.Campaign{
		Module:       p.mod,
		Plans:        plans,
		Threads:      opts.Threads,
		Faults:       opts.Faults,
		Seed:         opts.Seed,
		Transport:    opts.Transport,
		DisableSpool: opts.DisableSpool,
		Workers:      opts.Workers,
	}
	res, err := c.Run()
	if err != nil {
		return nil, fmt.Errorf("net-fault campaign on %s: %w", p.name, err)
	}
	out := &NetFaultResult{
		Injected:           res.Injected,
		Fired:              res.Fired,
		Reconnects:         res.Reconnects,
		Counts:             make(map[string]int, len(res.Counts)),
		ContractViolations: res.ContractViolations(),
		Elapsed:            res.Elapsed,
	}
	for o, n := range res.Counts {
		out.Counts[o.String()] = n
	}
	return out, nil
}

// Package inject implements the paper's PIN-based fault-injection
// methodology (Section IV) on top of the interpreter: a profiling run
// records how many conditional branches each thread executes; an
// experiment picks a random (thread j, dynamic branch k) target and either
// flips the branch outcome (flag-register fault) or flips one bit of the
// branch's condition data with persistence (condition fault); the outcome
// of the faulty run is compared against the golden run to classify it as
// benign, crash, hang, detected, or SDC.
package inject

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"blockwatch/internal/core"
	"blockwatch/internal/interp"
	"blockwatch/internal/ir"
	"blockwatch/internal/metrics"
	"blockwatch/internal/monitor"
)

// FaultType selects the paper's two fault models.
type FaultType int

// Fault types (paper Section IV, "Coverage Evaluation").
const (
	// BranchFlip forces the targeted branch the wrong (but legal) way —
	// the flag-register fault.
	BranchFlip FaultType = iota + 1
	// CondBit flips one bit of the branch's condition data; the corruption
	// persists in the value after the branch and may or may not change the
	// branch outcome.
	CondBit
	// EventBit flips one bit of a queued monitor Event's payload — a fault
	// in the *detector's* own data path rather than the program's. The
	// paper assumes the monitor is fault-free; this model quantifies how
	// the detector behaves when that assumption is dropped (outcomes are
	// classified program-fault vs detector-fault in DetectorTally).
	EventBit
)

// String names the fault type.
func (f FaultType) String() string {
	switch f {
	case BranchFlip:
		return "branch-flip"
	case CondBit:
		return "branch-condition"
	case EventBit:
		return "event-path"
	}
	return fmt.Sprintf("FaultType(%d)", int(f))
}

// Fault is one injection target.
type Fault struct {
	Type   FaultType
	Thread int        // thread j
	Seq    uint64     // dynamic branch (or branch-event) index k (1-based) within thread j
	Bit    uint       // bit to flip for CondBit/EventBit faults
	Field  EventField // event payload field for EventBit faults
}

// Single is an interp.FaultInjector that fires one fault and tracks its
// activation. It can be handed to any runner (plain runs, duplicated
// runs).
type Single struct {
	fault     Fault
	activated atomic.Bool // read by every thread's Stop poll
}

// NewSingle returns an injector for one fault.
func NewSingle(f Fault) *Single { return &Single{fault: f} }

// Activated reports whether the targeted dynamic branch was reached.
func (ij *Single) Activated() bool { return ij.activated.Load() }

var _ interp.FaultInjector = (*Single)(nil)

// BeforeBranch fires the fault when thread j reaches its k-th branch.
func (ij *Single) BeforeBranch(t *interp.Thread, br *ir.Instr) bool {
	if t.Tid() != ij.fault.Thread || t.BranchSeq() != ij.fault.Seq {
		return false
	}
	ij.activated.Store(true)
	switch ij.fault.Type {
	case BranchFlip:
		return true
	case CondBit:
		// Corrupt the first corruptible condition operand (registers and
		// parameters persist; constants cannot hold a corruption, matching
		// immediate operands on real hardware — fall back to an outcome
		// flip so the injection is never silently dropped).
		for _, op := range t.CondOperands(br) {
			if t.CorruptBit(op, ij.fault.Bit) {
				return false
			}
		}
		return true
	}
	return false
}

// Outcome classifies one faulty run (paper Section IV taxonomy).
type Outcome int

// Outcomes of a faulty run.
const (
	// NotActivated: the targeted dynamic branch was never reached.
	NotActivated Outcome = iota + 1
	// Benign: activated, program finished, output matches the golden run.
	Benign
	// Detected: the BLOCKWATCH monitor flagged a violation.
	Detected
	// Crash: a thread trapped (OOB, div-zero, ...).
	Crash
	// Hang: a thread exceeded its step budget or deadlocked.
	Hang
	// SDC: the program finished silently with wrong output.
	SDC
)

// String names the outcome.
func (o Outcome) String() string {
	switch o {
	case NotActivated:
		return "not-activated"
	case Benign:
		return "benign"
	case Detected:
		return "detected"
	case Crash:
		return "crash"
	case Hang:
		return "hang"
	case SDC:
		return "sdc"
	}
	return fmt.Sprintf("Outcome(%d)", int(o))
}

// Tally accumulates campaign outcomes.
type Tally struct {
	Injected  int
	Activated int
	Counts    map[Outcome]int
}

// Coverage returns 1 − SDC/activated, the paper's coverage metric
// ("the probability that an activated fault will not lead to an SDC";
// crashes, hangs, detections and masked faults all count as covered).
func (t Tally) Coverage() float64 {
	if t.Activated == 0 {
		return 1
	}
	return 1 - float64(t.Counts[SDC])/float64(t.Activated)
}

// SDCFraction returns SDC/activated.
func (t Tally) SDCFraction() float64 {
	if t.Activated == 0 {
		return 0
	}
	return float64(t.Counts[SDC]) / float64(t.Activated)
}

// Campaign configures a fault-injection campaign on one program.
type Campaign struct {
	// Module is the compiled program.
	Module *ir.Module
	// Plans enables BLOCKWATCH protection when non-nil; nil measures the
	// unprotected baseline (coverage_original in Figures 8 and 9).
	Plans map[int]*core.CheckPlan
	// Threads is the thread count (the paper uses 4 and 32).
	Threads int
	// Faults is the number of injections per run of the campaign.
	Faults int
	// Type selects the fault model.
	Type FaultType
	// Seed makes the campaign reproducible.
	Seed int64
	// StepFactor bounds faulty runs at StepFactor × the golden run's step
	// count to detect hangs quickly (0 = default 8).
	StepFactor uint64
	// Seed0 is the interpreter seed used for all runs (golden and faulty
	// must match).
	Seed0 uint64
	// Workers is the number of faulty runs executed concurrently
	// (0 = runtime.GOMAXPROCS(0), 1 = fully sequential). The fault list is
	// sampled from the campaign RNG before any run starts and results are
	// aggregated in fault order, so Tally, FirstDetected, and the returned
	// error are identical for every worker count.
	Workers int
	// Progress, when non-nil, receives a snapshot after roughly every
	// ProgressEvery completed runs and always after the final one.
	// Callbacks are serialized but may be invoked from worker goroutines.
	Progress func(CampaignProgress)
	// ProgressEvery is the Progress granularity in completed runs
	// (0 = max(1, Faults/64)).
	ProgressEvery int
	// Metrics, when non-nil, aggregates the monitor-pipeline metrics of
	// every monitored run in the campaign (golden and faulty). All handles
	// are atomic, so concurrent workers share the registry safely; the
	// deterministic campaign statistics are unaffected.
	Metrics *metrics.Registry
}

// CampaignProgress is a live snapshot of a running campaign, delivered to
// the Campaign.Progress callback.
type CampaignProgress struct {
	// Injected is the number of faulty runs completed so far.
	Injected int
	// Total is the number of planned runs.
	Total int
	// Activated counts completed runs whose fault was activated.
	Activated int
	// Counts are per-outcome totals so far (a private copy per snapshot).
	Counts map[Outcome]int
	// Elapsed is the wall-clock time since the first faulty run started.
	Elapsed time.Duration
}

// LatencyStats aggregates wall-clock durations of faulty runs. Unlike the
// tallies, latencies depend on the host machine and are not deterministic.
type LatencyStats struct {
	Count int
	Total time.Duration
	Min   time.Duration
	Max   time.Duration
}

// Mean returns the average duration (0 for an empty aggregate).
func (l LatencyStats) Mean() time.Duration {
	if l.Count == 0 {
		return 0
	}
	return l.Total / time.Duration(l.Count)
}

func (l *LatencyStats) add(d time.Duration) {
	if l.Count == 0 || d < l.Min {
		l.Min = d
	}
	if d > l.Max {
		l.Max = d
	}
	l.Count++
	l.Total += d
}

// DetectorTally classifies how the detector itself behaved across the
// runs of an event-path (EventBit) campaign, where the injected fault
// corrupts monitor data and never touches program state.
type DetectorTally struct {
	// ProgramDetections counts Detected runs whose program output also
	// diverged from the golden run — a genuine program fault was flagged.
	// Structurally zero for event-path faults (the program is untouched);
	// a nonzero value would indicate the fault model leaked into program
	// state.
	ProgramDetections int
	// DetectorDetections counts Detected runs whose program output matched
	// the golden run: the violation was an artifact of the corrupted event
	// path — a false alarm caused by a fault *in the detector*, the one
	// way the zero-false-positive guarantee can be broken when the
	// monitor's own data is corrupted.
	DetectorDetections int
	// Quarantined counts runs in which the monitor quarantined at least
	// one event (the corruption was recognized as malformed and absorbed).
	Quarantined int
	// Degraded counts runs that ended with Health ≠ Healthy.
	Degraded int
}

// CampaignResult is the aggregate of one campaign.
type CampaignResult struct {
	Tally      Tally
	GoldenTime int64 // simulated cycles of the golden run
	// Detector classifies detector-under-fault behavior; non-nil only for
	// EventBit campaigns.
	Detector *DetectorTally
	// FirstDetected is the index (in fault-sampling order) of the first
	// fault whose run was classified Detected; -1 when none was. It is
	// independent of worker count and scheduling.
	FirstDetected int
	// FirstDetectedFault is the fault at FirstDetected (zero when -1).
	FirstDetectedFault Fault
	// Elapsed is the wall-clock time of the injection phase (observability
	// only; machine-dependent).
	Elapsed time.Duration
	// Latency aggregates per-outcome wall-clock run durations
	// (observability only; machine-dependent). Run stops a protected
	// branch-flip or branch-condition run at its first detected
	// violation, so a Detected run's duration is its time to stop;
	// event-path runs and RunWith runners always run to the end.
	Latency map[Outcome]LatencyStats
}

// Errors returned by Run.
var (
	ErrNoFaults        = errors.New("campaign needs a positive fault count")
	ErrNoBranches      = errors.New("program executed no branches to inject into")
	ErrNoEvents        = errors.New("program sent no monitor events to inject into")
	ErrEventNeedsPlans = errors.New("event-path campaign requires check plans (Plans)")
)

// Run executes the three-step procedure of Section IV: profile, sample,
// inject.
func (c Campaign) Run() (*CampaignResult, error) {
	return c.runAll(func(f Fault, stepLimit uint64, golden []interp.Value) (Outcome, runExtras, error) {
		out, ex := c.runOneFull(f, golden, stepLimit)
		return out, ex, nil
	})
}

// Runner executes one faulty run (under any detector) and classifies it.
// The golden output is provided for SDC comparison. When Campaign.Workers
// is not 1, the Runner is invoked from multiple goroutines concurrently
// and must not share mutable state across calls.
type Runner func(f Fault, stepLimit uint64, golden []interp.Value) (Outcome, error)

// runnerFull is the internal per-run signature: in addition to the
// outcome it reports detector-side observations used to build
// DetectorTally.
type runnerFull func(f Fault, stepLimit uint64, golden []interp.Value) (Outcome, runExtras, error)

// runExtras carries per-run detector observations out of the worker pool;
// they are aggregated in fault-index order like the outcomes.
type runExtras struct {
	valid       bool // populated (internal runners only)
	outputMatch bool // program output matched the golden run
	quarantined uint64
	dropped     uint64
	degraded    bool // Health ≠ Healthy at run end
}

// RunWith executes the campaign's profiling and sampling steps but
// delegates each faulty run to a custom Runner — used to evaluate other
// detectors (e.g. duplication) under the identical fault distribution.
//
// The full fault list is sampled from the campaign RNG before any faulty
// run starts, so the sampled distribution is byte-identical to the
// historical sequential implementation; the runs then fan out over
// Workers goroutines and are aggregated in fault order, making every
// field of CampaignResult except the wall-clock Elapsed/Latency
// observability data independent of worker count and scheduling.
func (c Campaign) RunWith(run Runner) (*CampaignResult, error) {
	return c.runAll(func(f Fault, stepLimit uint64, golden []interp.Value) (Outcome, runExtras, error) {
		out, err := run(f, stepLimit, golden)
		return out, runExtras{}, err
	})
}

// runAll is the shared campaign engine: profile, sample, fan out, and
// aggregate deterministically.
func (c Campaign) runAll(run runnerFull) (*CampaignResult, error) {
	if c.Faults < 1 {
		return nil, ErrNoFaults
	}
	stepFactor := c.StepFactor
	if stepFactor == 0 {
		stepFactor = 8
	}

	// Step 1: golden (profiling) run — record per-thread branch counts and
	// the reference output. Event-path campaigns profile with the monitor
	// draining (but not checking) so the per-thread *event* counts — the
	// sampling space of EventBit faults — are recorded; the monitor never
	// feeds back into program values, so the reference output is the same.
	goldenOpts := interp.Options{Threads: c.Threads, Seed: c.Seed0}
	if c.Type == EventBit {
		if c.Plans == nil {
			return nil, ErrEventNeedsPlans
		}
		goldenOpts.Mode = interp.MonitorDrainOnly
		goldenOpts.Plans = c.Plans
	}
	golden, err := c.run(goldenOpts, nil, nil)
	if err != nil {
		return nil, fmt.Errorf("golden run: %w", err)
	}
	if !golden.Clean() {
		return nil, fmt.Errorf("golden run not clean: %v", golden.Traps)
	}
	space := golden.BranchCounts
	spaceErr := ErrNoBranches
	if c.Type == EventBit {
		space = golden.EventCounts
		spaceErr = ErrNoEvents
	}
	var total uint64
	for _, n := range space {
		total += n
	}
	if total == 0 {
		return nil, spaceErr
	}

	// Step 2: sample every (thread, branch) target up front, in the exact
	// RNG consumption order of the sequential implementation.
	rng := rand.New(rand.NewSource(c.Seed))
	faults := c.sampleFaults(rng, space)

	stepLimit := sumSteps(golden) * stepFactor

	// Step 3: inject one fault per run, fanned out over the worker pool.
	outcomes := make([]Outcome, len(faults))
	extras := make([]runExtras, len(faults))
	latencies := make([]time.Duration, len(faults))
	errs := make([]error, len(faults))

	workers := c.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(faults) {
		workers = len(faults)
	}

	start := time.Now()
	tracker := newProgressTracker(c, len(faults), start)

	var (
		next     atomic.Int64
		failedAt atomic.Int64 // lowest failed fault index so far
		wg       sync.WaitGroup
	)
	failedAt.Store(int64(len(faults)))
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(faults) {
					return
				}
				// Soft-cancel: once some earlier index failed, skip later
				// work. The lowest failing index is always executed (only
				// strictly later indices are skipped), so the returned
				// error stays deterministic.
				if int(failedAt.Load()) < i {
					continue
				}
				t0 := time.Now()
				out, ex, err := run(faults[i], stepLimit, golden.Output)
				latencies[i] = time.Since(t0)
				extras[i] = ex
				if err != nil {
					errs[i] = err
					for {
						cur := failedAt.Load()
						if int64(i) >= cur || failedAt.CompareAndSwap(cur, int64(i)) {
							break
						}
					}
					continue
				}
				outcomes[i] = out
				tracker.done(out)
			}
		}()
	}
	wg.Wait()

	if i := int(failedAt.Load()); i < len(faults) {
		return nil, fmt.Errorf("fault %d: %w", i, errs[i])
	}

	// Deterministic aggregation: walk outcomes in fault order.
	res := &CampaignResult{
		GoldenTime:    golden.SimTime,
		FirstDetected: -1,
		Elapsed:       time.Since(start),
		Latency:       make(map[Outcome]LatencyStats),
	}
	res.Tally.Counts = make(map[Outcome]int)
	if c.Type == EventBit {
		res.Detector = &DetectorTally{}
	}
	for i, out := range outcomes {
		res.Tally.Injected++
		if out != NotActivated {
			res.Tally.Activated++
		}
		res.Tally.Counts[out]++
		if out == Detected && res.FirstDetected < 0 {
			res.FirstDetected = i
			res.FirstDetectedFault = faults[i]
		}
		if res.Detector != nil && extras[i].valid {
			if out == Detected {
				if extras[i].outputMatch {
					res.Detector.DetectorDetections++
				} else {
					res.Detector.ProgramDetections++
				}
			}
			if extras[i].quarantined > 0 {
				res.Detector.Quarantined++
			}
			if extras[i].degraded {
				res.Detector.Degraded++
			}
		}
		ls := res.Latency[out]
		ls.add(latencies[i])
		res.Latency[out] = ls
	}
	return res, nil
}

// sampleFaults draws the campaign's full fault list. The per-fault RNG
// consumption order for the program-fault models (thread, bit, seq) must
// not change: it is what keeps parallel campaigns byte-identical to the
// historical sequential ones. EventBit uses its own draw order (thread,
// bit, seq, field) over the branch-event counts.
func (c Campaign) sampleFaults(rng *rand.Rand, counts []uint64) []Fault {
	faults := make([]Fault, c.Faults)
	for i := range faults {
		f := Fault{Type: c.Type, Thread: c.pickThread(rng, counts)}
		if c.Type == EventBit {
			f.Bit = uint(rng.Intn(64)) // any payload bit, incl. full 64-bit keys
			f.Seq = 1 + uint64(rng.Int63n(int64(counts[f.Thread])))
			f.Field = EventField(rng.Intn(int(numEventFields)))
		} else {
			f.Bit = uint(rng.Intn(31)) // low 31 bits: plausible data faults
			f.Seq = 1 + uint64(rng.Int63n(int64(counts[f.Thread])))
		}
		faults[i] = f
	}
	return faults
}

// progressTracker maintains the live counters behind the Progress
// callback. It is intentionally separate from the deterministic
// aggregation: snapshots reflect completion order, the final result does
// not.
type progressTracker struct {
	mu        sync.Mutex
	cb        func(CampaignProgress)
	every     int
	total     int
	start     time.Time
	injected  int
	activated int
	counts    map[Outcome]int
	sinceCb   int
}

func newProgressTracker(c Campaign, total int, start time.Time) *progressTracker {
	if c.Progress == nil {
		return nil
	}
	every := c.ProgressEvery
	if every <= 0 {
		every = total / 64
		if every < 1 {
			every = 1
		}
	}
	return &progressTracker{
		cb:     c.Progress,
		every:  every,
		total:  total,
		start:  start,
		counts: make(map[Outcome]int),
	}
}

func (p *progressTracker) done(out Outcome) {
	if p == nil {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	p.injected++
	if out != NotActivated {
		p.activated++
	}
	p.counts[out]++
	p.sinceCb++
	if p.sinceCb < p.every && p.injected < p.total {
		return
	}
	p.sinceCb = 0
	snap := CampaignProgress{
		Injected:  p.injected,
		Total:     p.total,
		Activated: p.activated,
		Counts:    make(map[Outcome]int, len(p.counts)),
		Elapsed:   time.Since(p.start),
	}
	for k, v := range p.counts {
		snap.Counts[k] = v
	}
	p.cb(snap)
}

// pickThread samples a thread weighted by its executed branch count so
// every dynamic branch is equally likely (the paper picks j then k; with
// heterogeneous counts uniform-j would bias toward light threads).
func (c Campaign) pickThread(rng *rand.Rand, counts []uint64) int {
	var total uint64
	for _, n := range counts {
		total += n
	}
	x := uint64(rng.Int63n(int64(total)))
	for tid, n := range counts {
		if x < n {
			return tid
		}
		x -= n
	}
	return len(counts) - 1
}

func sumSteps(golden *interp.Result) uint64 {
	// Use branch counts as a proxy for work; the multiplier makes the
	// budget generous.
	var total uint64
	for _, n := range golden.BranchCounts {
		total += n
	}
	return total * 64
}

// runOneFull performs a single faulty run and classifies it, reporting
// detector-side observations alongside the outcome.
func (c Campaign) runOneFull(f Fault, golden []interp.Value, stepLimit uint64) (Outcome, runExtras) {
	if f.Type == EventBit {
		return c.runOneEvent(f, golden, stepLimit)
	}
	ij := NewSingle(f)
	mode := interp.MonitorOff
	if c.Plans != nil {
		mode = interp.MonitorActive
	}
	res, err := c.run(interp.Options{
		Threads:   c.Threads,
		Mode:      mode,
		Plans:     c.Plans,
		Fault:     ij,
		Seed:      c.Seed0,
		StepLimit: stepLimit,
	}, nil, ij)
	if err != nil {
		return Crash, runExtras{}
	}
	ex := extrasFrom(res, golden)
	if !ij.Activated() {
		return NotActivated, ex
	}
	return classify(res, golden, ex), ex
}

// runOne keeps the historical single-outcome shape (tests, docs).
func (c Campaign) runOne(f Fault, golden []interp.Value, stepLimit uint64) Outcome {
	out, _ := c.runOneFull(f, golden, stepLimit)
	return out
}

// runOneEvent performs one event-path (EventBit) faulty run: the program
// executes fault-free with the monitor active, and the Tap corrupts the
// targeted queued event on the monitor side.
func (c Campaign) runOneEvent(f Fault, golden []interp.Value, stepLimit uint64) (Outcome, runExtras) {
	tap := NewTap(f)
	res, err := c.run(interp.Options{
		Threads:   c.Threads,
		Mode:      interp.MonitorActive,
		Plans:     c.Plans,
		Seed:      c.Seed0,
		StepLimit: stepLimit,
	}, tap.Corrupt, nil)
	if err != nil {
		return Crash, runExtras{}
	}
	ex := extrasFrom(res, golden)
	if !tap.Activated() {
		return NotActivated, ex
	}
	return classify(res, golden, ex), ex
}

// run executes one campaign run. A monitoring opts.Mode gets a monitor
// built here with the campaign's Metrics and the event tap (nil = none);
// a monitor whose run failed is closed. When stopAt is not nil the
// monitored run stops as soon as its fault has activated and the monitor
// has flagged a violation: both only ever turn true, so such a run would
// have been classified Detected had it run to the end (classify gives
// Detected precedence over every other outcome), and stopping it changes
// no tally.
func (c Campaign) run(opts interp.Options, tap func(*monitor.Event), stopAt *Single) (*interp.Result, error) {
	if opts.Mode == interp.MonitorActive || opts.Mode == interp.MonitorDrainOnly {
		mon, err := monitor.New(monitor.Config{
			NumThreads:       opts.Threads,
			Plans:            opts.Plans,
			CheckingDisabled: opts.Mode == interp.MonitorDrainOnly,
			EventTap:         tap,
			Metrics:          c.Metrics,
		})
		if err != nil {
			return nil, fmt.Errorf("monitor: %w", err)
		}
		opts.Sink = mon
		if stopAt != nil {
			opts.Stop = func() bool { return stopAt.Activated() && mon.Detected() }
		}
	}
	res, err := interp.Run(c.Module, opts)
	if err != nil && opts.Sink != nil {
		opts.Sink.Close()
	}
	return res, err
}

// classify applies the paper's outcome taxonomy to a completed run.
func classify(res *interp.Result, golden []interp.Value, ex runExtras) Outcome {
	if res.Detected {
		return Detected
	}
	switch {
	case res.Crashed():
		return Crash
	case res.Hung():
		return Hang
	}
	if !ex.outputMatch {
		return SDC
	}
	return Benign
}

func extrasFrom(res *interp.Result, golden []interp.Value) runExtras {
	return runExtras{
		valid:       true,
		outputMatch: sameOutput(res.Output, golden),
		quarantined: res.MonitorStats.Quarantined,
		dropped:     res.MonitorStats.Dropped,
		degraded:    res.MonitorHealth != monitor.Healthy,
	}
}

func sameOutput(a, b []interp.Value) bool {
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

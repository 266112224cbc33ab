package monitor

// Fail-open resilience: the paper assumes the monitor itself is fault-free
// and sizes its queues "sufficiently large". This file holds the knobs and
// state machine that drop those assumptions — overflow policies for the
// front-end queues, a health state the monitor degrades through instead of
// wedging the program, and the watchdog/quarantine vocabulary used by
// monitor.go. The contract throughout is that degradation may lose
// *coverage* (events are dropped or quarantined, so a fault may go
// undetected) but never *correctness* (a violation is only ever reported
// for genuinely inconsistent reports — every check rule is subset-closed,
// see docs/internals.md) and never *liveness* (producers are always
// eventually unblocked).

// OverflowPolicy selects what a Sender does with branch events when its
// thread's front-end queue is full.
//
// Control events (EvFlush, EvDone) always block regardless of policy:
// dropping a flush could mix barrier generations (a false-positive
// hazard), and dropping a done could hold the live-thread set open
// forever. Branch events, by contrast, are droppable without harm — the
// shared/threadID/partial/uniform rules are all subset-closed, so any
// subset of ≥2 surviving reports still checks soundly.
type OverflowPolicy int

// Overflow policies.
const (
	// OverflowBlock spins until the queue has room — the paper's lossless
	// behavior (and the default). A wedged monitor stalls producers.
	OverflowBlock OverflowPolicy = iota
	// OverflowDropNewest drops the new branch event immediately and
	// counts it in the per-thread drop counters.
	OverflowDropNewest
	// OverflowBlockTimeout spins a bounded number of times
	// (DefaultSendSpins), then drops and counts the event. The budget is
	// per stall: until the queue has room again, later events drop at
	// once.
	OverflowBlockTimeout
)

// String names the policy (flag syntax of cmd/bwrun).
func (p OverflowPolicy) String() string {
	switch p {
	case OverflowBlock:
		return "block"
	case OverflowDropNewest:
		return "drop-newest"
	case OverflowBlockTimeout:
		return "block-timeout"
	}
	return "OverflowPolicy(?)"
}

// DefaultSendSpins bounds the OverflowBlockTimeout spin loop.
const DefaultSendSpins = 1 << 12

// HealthState is the monitor's degradation level. Transitions only move
// downward: Healthy → Degraded (events dropped, quarantined, or a
// generation force-closed by the watchdog — coverage reduced, guarantees
// intact) and any state → Failed (the monitor goroutine panicked; its
// table state was discarded and a failsafe drain keeps producers
// unblocked, so the program completes without further checking).
type HealthState int32

// Health states.
const (
	Healthy HealthState = iota
	Degraded
	Failed
)

// String names the state.
func (h HealthState) String() string {
	switch h {
	case Healthy:
		return "healthy"
	case Degraded:
		return "degraded"
	case Failed:
		return "failed"
	}
	return "HealthState(?)"
}

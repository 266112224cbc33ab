package monitor

// Sink is the interface the interpreter uses to deliver events: the flat
// Monitor and the Relay implement it (and types that embed a Relay, such
// as the trace recorder and the remote client). Events are published only
// through per-thread Senders.
type Sink interface {
	// Sender returns the batching producer handle for one thread (the
	// thread's only way to publish events).
	Sender(tid int) *Sender
	// Start launches the sink's background goroutine.
	Start()
	// Close drains outstanding events, performs final checks, and waits.
	// It is idempotent.
	Close()
	// Detected reports whether any violation was recorded.
	Detected() bool
	// Violations returns a copy of the recorded violations.
	Violations() []Violation
	// Health reports the monitor's fail-open degradation state.
	Health() HealthState
	// Stats returns a snapshot of the sink's pipeline counters.
	Stats() Stats
}

var (
	_ Sink = (*Monitor)(nil)
	_ Sink = (*Relay)(nil)
)

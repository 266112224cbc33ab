package monitor

// Sink is the interface the interpreter uses to deliver events: the flat
// Monitor, the Hierarchical extension and the Relay implement it. Events
// are published only through per-thread Senders.
type Sink interface {
	// Sender returns the batching producer handle for one thread (the
	// thread's only way to publish events).
	Sender(tid int) *Sender
	// Start launches the asynchronous checking goroutine(s).
	Start()
	// Close drains outstanding events, performs final checks, and waits.
	Close()
	// Detected reports whether any violation was recorded.
	Detected() bool
	// Violations returns a copy of the recorded violations.
	Violations() []Violation
	// Health reports the monitor's fail-open degradation state.
	Health() HealthState
}

var (
	_ Sink = (*Monitor)(nil)
	_ Sink = (*Hierarchical)(nil)
)

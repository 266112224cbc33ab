// Package monitor implements BLOCKWATCH's runtime monitor (paper Section
// III-B): per-thread lock-free front-end queues feeding an asynchronous
// monitor goroutine that correlates branch events across threads in a
// two-level hash table and checks them against the statically inferred
// similarity categories. The same checker is also driven synchronously
// (Checker) by a goroutine that already holds every thread's events in
// order: a daemon session or a trace replay. A deviation is recorded as
// a Violation; the design goal (and tested property) is zero false
// positives on fault-free runs.
//
// The table (table.go) is flat: level 1 binds Key1 to its check plan for
// the run, level 2 is an open-addressed index over dense per-generation
// entries, and each instance's reports sit in one block of a report
// arena. A barrier empties level 2 by bumping an epoch and truncating the
// entries and the arena, and a finished monitor hands its table to the
// next one in the process.
package monitor

import "fmt"

// EventKind distinguishes branch reports from control events.
type EventKind uint8

// Event kinds.
const (
	// EvBranch reports one executed branch instance.
	EvBranch EventKind = iota + 1
	// EvFlush marks that the sending thread reached a barrier: when every
	// thread's flush has been processed, pending instances are checked and
	// the table is cleared.
	EvFlush
	// EvDone marks that the sending thread finished the parallel section.
	EvDone
)

// Event is the record a thread sends to the monitor for each executed
// checked branch. It carries the paper's two library calls in one message:
// the condition signature (sendBranchCondition) and the branch outcome
// (sendBranchAddr), plus the static and runtime parts of the hash-table
// key.
type Event struct {
	Kind     EventKind
	Taken    bool
	Thread   int32
	BranchID int32
	// Key1 is the first-level table key: the call-site path hash combined
	// with the static branch identifier.
	Key1 uint64
	// Key2 is the second-level key: the hash of the outer-loop iteration
	// vector.
	Key2 uint64
	// Sig is the condition signature (hash of the condition operand
	// values named by the branch's CheckPlan).
	Sig uint64
}

// Report is one thread's contribution to a branch instance. An instance's
// reports are stored contiguously (the table's report arena), in arrival
// order until CheckReports sorts them by thread. Its fields are ordered
// so that it takes 16 bytes.
type Report struct {
	Sig    uint64
	Thread int32
	Taken  bool
}

// Violation describes one detected similarity deviation.
type Violation struct {
	BranchID int
	Key1     uint64
	Key2     uint64
	Reason   string
}

// String renders the violation for logs.
func (v Violation) String() string {
	return fmt.Sprintf("branch#%d key=%x/%x: %s", v.BranchID, v.Key1, v.Key2, v.Reason)
}

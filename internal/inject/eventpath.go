package inject

import (
	"fmt"

	"blockwatch/internal/monitor"
)

// EventField names the payload field of a monitor.Event corrupted by an
// EventBit fault. The event Kind is deliberately not corruptible: flipping
// it would turn a branch report into a control event (flush/done) whose
// processing changes generation bookkeeping — that is a different fault
// class (control corruption) and would make the run depend on drain
// scheduling. Payload corruption leaves the event-stream structure intact,
// so the campaign stays deterministic across worker counts.
type EventField int

// Corruptible event payload fields.
const (
	FieldSig EventField = iota
	FieldKey1
	FieldKey2
	FieldBranchID
	FieldThread
	FieldTaken
	numEventFields
)

// String names the field.
func (f EventField) String() string {
	switch f {
	case FieldSig:
		return "sig"
	case FieldKey1:
		return "key1"
	case FieldKey2:
		return "key2"
	case FieldBranchID:
		return "branch-id"
	case FieldThread:
		return "thread"
	case FieldTaken:
		return "taken"
	}
	return fmt.Sprintf("EventField(%d)", int(f))
}

// FlipEventBit applies one bit-flip to the named payload field. Bits are
// masked to the field's width; FieldTaken is a boolean, so any bit choice
// inverts it.
func FlipEventBit(ev *monitor.Event, field EventField, bit uint) {
	switch field {
	case FieldSig:
		ev.Sig ^= 1 << (bit & 63)
	case FieldKey1:
		ev.Key1 ^= 1 << (bit & 63)
	case FieldKey2:
		ev.Key2 ^= 1 << (bit & 63)
	case FieldBranchID:
		ev.BranchID ^= 1 << (bit & 31)
	case FieldThread:
		ev.Thread ^= 1 << (bit & 31)
	case FieldTaken:
		ev.Taken = !ev.Taken
	}
}

// Tap is the event-path fault injector: installed as the monitor's
// EventTap, it corrupts one bit of the Seq-th branch event of the targeted
// thread as the event is dequeued. It is called only from the single
// monitor goroutine, and Activated is read only after monitor.Close (which
// establishes the necessary happens-before), so no synchronization is
// needed.
//
// Targeting by (pre-corruption) ev.Thread is deterministic: each thread's
// Sender publishes onto that thread's own queue, queues are FIFO, and only one
// event per run is corrupted — so "thread j's k-th branch event" is a
// fixed event regardless of how the monitor interleaves its queue drains.
type Tap struct {
	fault     Fault
	seen      uint64
	activated bool
}

// NewTap returns an injector for one EventBit fault.
func NewTap(f Fault) *Tap { return &Tap{fault: f} }

// Activated reports whether the targeted event was reached and corrupted.
func (tp *Tap) Activated() bool { return tp.activated }

// Corrupt is the monitor EventTap hook.
func (tp *Tap) Corrupt(ev *monitor.Event) {
	if ev.Kind != monitor.EvBranch || int(ev.Thread) != tp.fault.Thread {
		return
	}
	tp.seen++
	if tp.seen != tp.fault.Seq {
		return
	}
	tp.activated = true
	FlipEventBit(ev, tp.fault.Field, tp.fault.Bit)
}

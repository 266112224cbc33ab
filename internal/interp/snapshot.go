package interp

import "errors"

// Snapshot is the state of a run just after a barrier released: shared
// memory, the setup() output, the release clock and each thread's slave()
// frame, position and counters, taken at an Episode. Later runs of the
// same program can start from a snapshot instead of from the top
// (Options.Resume). It is read-only once taken, so concurrent runs may
// resume from the same snapshot.
//
// It holds no lock table. No thread holds a lock at a snapshot, and a
// slot's release time is a clock its holder had before it reached the
// barrier, so it is at most the release clock every thread restarts
// from: a fresh table, with each thread's clock bound at the release
// clock, grants every later request as the run would have.
type Snapshot struct {
	prog       *program
	episode    int // barrier releases before this one
	releaseSim int64
	mem        []Value
	setupOut   []Value
	threads    []threadSnap
}

// threadSnap is one thread's state at a snapshot.
type threadSnap struct {
	pc                              int32 // slave()'s pc after the barrier
	regs                            []Value
	loopStack, loopKeys             []uint64
	steps, branchSeq, eventSeq, rng uint64
	output                          []Value
}

// Episode returns the number of barrier releases in the run before the
// one the snapshot was taken at.
func (s *Snapshot) Episode() int { return s.episode }

// BranchSeq returns the number of conditional branches thread tid had
// executed at the snapshot.
func (s *Snapshot) BranchSeq(tid int) uint64 { return s.threads[tid].branchSeq }

// ErrResume reports a snapshot that does not fit the run resuming from it.
var ErrResume = errors.New("snapshot is not from this program at this thread count")

// Episode is a barrier episode that qualifies for a snapshot, as
// Options.Capture sees it. It is valid only during that call.
type Episode struct {
	m          *machine
	n          int
	releaseSim int64
}

// N returns the number of barrier releases in the run before this one.
func (e Episode) N() int { return e.n }

// BranchSeq returns the number of conditional branches thread tid has
// executed.
func (e Episode) BranchSeq(tid int) uint64 { return e.m.threads[tid].branchSeq }

// Snapshot copies the run's state at the episode.
func (e Episode) Snapshot() *Snapshot {
	m := e.m
	s := &Snapshot{
		prog:       m.prog,
		episode:    e.n,
		releaseSim: e.releaseSim,
		mem:        append([]Value(nil), m.mem...),
		setupOut:   m.setupOut,
		threads:    make([]threadSnap, len(m.threads)),
	}
	for i, t := range m.threads {
		s.threads[i] = threadSnap{
			pc:        t.resumePC,
			regs:      append([]Value(nil), t.fr.regs...),
			loopStack: append([]uint64(nil), t.loopStack...),
			loopKeys:  append([]uint64(nil), t.loopKeys...),
			steps:     t.steps,
			branchSeq: t.branchSeq,
			eventSeq:  t.eventSeq,
			rng:       t.rng,
			output:    append([]Value(nil), t.output...),
		}
	}
	return s
}

// episode hands Options.Capture barrier episode n if it qualifies. It
// runs on the last thread to arrive, under the barrier's lock: every
// peer waits for the release, so no thread state or memory word can
// change.
func (m *machine) episode(n int, releaseSim int64) {
	for _, t := range m.threads {
		if t.depth != 1 || len(t.held) > 0 {
			return
		}
	}
	m.opts.Capture(Episode{m, n, releaseSim})
}

// restore loads a snapshot's shared state into a fresh machine: memory,
// the setup() output, and every thread's clock bound in the lock table.
func (m *machine) restore(s *Snapshot) {
	copy(m.mem, s.mem)
	m.setupOut = s.setupOut
	for i := range m.locks.threads {
		m.locks.threads[i].clock = s.releaseSim
	}
}

// resume runs slave() on t from its state in s: the frame, counters and
// loop keys are copied, so the snapshot stays intact for other runs.
func (t *Thread) resume(fn *function, s *Snapshot) *Trap {
	ts := &s.threads[t.tid]
	t.sim = s.releaseSim
	t.steps, t.branchSeq, t.eventSeq, t.rng = ts.steps, ts.branchSeq, ts.eventSeq, ts.rng
	t.loopStack = append(t.loopStack[:0], ts.loopStack...)
	t.loopKeys = append(t.loopKeys[:0], ts.loopKeys...)
	t.output = append([]Value(nil), ts.output...)
	fr := &frame{fn: fn, regs: append([]Value(nil), ts.regs...)}
	t.frames = append(t.frames[:0], fr)
	t.fr, t.depth = fr, 1
	_, trap := t.exec(fn, fr.regs, ts.pc)
	t.fr, t.depth = nil, 0
	return trap
}

package monitor

import (
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"
	"unsafe"

	"blockwatch/internal/core"
	"blockwatch/internal/ir"
)

// refModel is the monitor's event-processing semantics over plain maps: a
// Key1 → plan binding map and a (Key1, Key2) → reports map cleared at
// every generation close. It is the oracle the flat table is checked
// against, so it stays deliberately naive.
type refModel struct {
	threads, max int
	plans        map[int]*core.CheckPlan
	bind         map[uint64]*core.CheckPlan
	inst         map[[2]uint64]*refInst
	flushCount   []uint64
	done         []bool
	gens         uint64
	log, gen     []Violation
	st           Stats
	seen         map[string]int // corner cases hit, for coverage
}

type refInst struct {
	plan    *core.CheckPlan
	reports []Report
	checked bool
}

func newRefModel(threads, max int, plans map[int]*core.CheckPlan) *refModel {
	if max <= 0 {
		max = DefaultMaxInstances
	}
	return &refModel{threads: threads, max: max, plans: plans,
		bind: map[uint64]*core.CheckPlan{}, inst: map[[2]uint64]*refInst{},
		flushCount: make([]uint64, threads), done: make([]bool, threads), seen: map[string]int{}}
}

func (r *refModel) process(slot int, ev Event) {
	switch {
	case (ev.Kind == EvFlush || ev.Kind == EvDone) && (int(ev.Thread) != slot || r.done[slot]):
		r.st.Quarantined++
	case ev.Kind == EvFlush || ev.Kind == EvDone:
		if ev.Kind == EvFlush {
			r.flushCount[slot]++
		} else {
			r.done[slot] = true
		}
		lo, live := ^uint64(0), false
		for i, c := range r.flushCount {
			if !r.done[i] {
				lo, live = min(lo, c), true
			}
		}
		for live && r.gens < lo {
			r.close(closeBarrier)
		}
	case ev.Kind != EvBranch || r.done[slot] || r.flushCount[slot] < r.gens ||
		ev.Thread < 0 || int(ev.Thread) >= r.threads:
		r.st.Quarantined++
	default:
		r.st.Events++
		r.insert(ev)
	}
}

func (r *refModel) insert(ev Event) {
	plan, own := r.bind[ev.Key1], r.plans[int(ev.BranchID)]
	switch {
	case plan != nil && plan.BranchID != int(ev.BranchID):
		r.seen["mismatch"]++
		if own == nil || own.Checked() {
			r.st.Quarantined++
		}
		return
	case plan == nil && own == nil:
		r.seen["unknown"]++
		r.st.Quarantined++
		return
	case plan == nil && !own.Checked():
		r.seen["unchecked"]++
		return
	case plan == nil:
		plan = own
		r.bind[ev.Key1] = plan
	}
	k := [2]uint64{ev.Key1, ev.Key2}
	in := r.inst[k]
	if in == nil {
		if len(r.inst) >= r.max {
			r.seen["overflow"]++
			r.close(closeOverflow)
		}
		in = &refInst{plan: plan}
		r.inst[k] = in
	}
	for _, p := range in.reports {
		if p.Thread == ev.Thread {
			r.seen["duplicate"]++
		}
	}
	in.checked = false
	in.reports = append(in.reports, Report{Thread: ev.Thread, Sig: ev.Sig, Taken: ev.Taken})
	if len(in.reports) > r.threads {
		r.seen["straggler"]++
	}
	if len(in.reports) >= r.threads {
		r.check(k, in)
	}
}

func (r *refModel) check(k [2]uint64, in *refInst) {
	if in.checked {
		return
	}
	in.checked = true
	r.st.Instances++
	if reason := CheckReports(in.plan, in.reports); reason != "" {
		r.gen = append(r.gen, Violation{BranchID: in.plan.BranchID, Key1: k[0], Key2: k[1], Reason: reason})
	}
}

func (r *refModel) close(reason closeReason) {
	for k, in := range r.inst {
		if !in.checked && len(in.reports) >= 2 {
			r.check(k, in)
		}
	}
	sortViolations(r.gen)
	r.log = append(r.log, r.gen...)
	r.gen, r.inst = nil, map[[2]uint64]*refInst{}
	if reason != closeFinal {
		r.st.Flushes++
	}
	if reason == closeBarrier || reason == closeForced {
		r.gens++
	}
}

// diffPlans covers every check kind plus an unchecked branch. Branch IDs 0
// and 5 are unknown.
func diffPlans() map[int]*core.CheckPlan {
	return map[int]*core.CheckPlan{
		1: {BranchID: 1, Kind: core.CheckShared, Reason: core.ReasonChecked},
		2: {BranchID: 2, Kind: core.CheckPartial, Reason: core.ReasonChecked},
		3: {BranchID: 3, Kind: core.CheckNone, Reason: core.ReasonNone},
		4: {BranchID: 4, Kind: core.CheckThreadID, Reason: core.ReasonChecked, Relation: ir.OpLt, TidOnLeft: true},
	}
}

// diffOp is one step of a differential stream: an event processed as if
// drained from queue slot, or a forced generation close.
type diffOp struct {
	slot  int
	ev    Event
	force bool
}

// decodeDiffStream turns bytes into a monitor shape and a stream. The
// first two bytes pick the thread count (1–5) and MaxInstances; each
// following 5-byte record is one op.
func decodeDiffStream(data []byte) (threads, maxInst int, ops []diffOp) {
	if len(data) < 2 {
		return 2, 0, nil
	}
	threads = 1 + int(data[0]%5)
	maxInst = []int{0, 7, 90, 600}[data[1]%4]
	for b := data[2:]; len(b) >= 5; b = b[5:] {
		sel, tb, kb, k2, sb := b[0], b[1], b[2], b[3], b[4]
		slot := int(tb) % threads
		ctl := int32(slot) // control events, mislabeled when sel's top bit is set
		if sel&0x80 != 0 {
			ctl++
		}
		switch sel % 16 {
		case 10: // 64 fresh single-report instances: grows the index
			for j := uint64(0); j < 64; j++ {
				ops = append(ops, diffOp{slot: slot, ev: Event{Kind: EvBranch, Thread: int32(slot),
					BranchID: 1, Key1: 1000, Key2: 1<<16 | uint64(k2)<<6 | j, Sig: uint64(sb % 3)}})
			}
		case 11, 12:
			ops = append(ops, diffOp{slot: slot, ev: Event{Kind: EvFlush, Thread: ctl}})
		case 13:
			ops = append(ops, diffOp{slot: slot, ev: Event{Kind: EvDone, Thread: ctl}})
		case 14:
			ops = append(ops, diffOp{force: true})
		case 15:
			ops = append(ops, diffOp{slot: slot, ev: Event{Kind: EventKind(4 * (sb & 1)), Thread: int32(slot)}})
		default:
			key := uint64(kb%4) + 1
			branch := int32(key)
			if sel&0x40 != 0 {
				branch = int32(sb>>3) % 6 // may disagree with Key1's binding
			}
			ops = append(ops, diffOp{slot: slot, ev: Event{Kind: EvBranch,
				Thread:   int32(tb%uint8(threads+2)) - 1, // -1 and threads are out of range
				BranchID: branch, Key1: key * 1000, Key2: uint64(k2 % 24),
				Sig: uint64(sb % 3), Taken: sb&4 != 0}})
		}
	}
	return threads, maxInst, ops
}

// runDiff feeds one decoded stream to a Monitor and to the reference
// model (see runOps).
func runDiff(data []byte) (map[string]int, error) {
	return runOps(decodeDiffStream(data))
}

// runOps feeds a stream to a Monitor (by calling its drain-side
// processing directly, so the order is exactly the stream's) and to the
// reference model, and reports any difference in the violation log or
// the Stats counters.
func runOps(threads, maxInst int, ops []diffOp) (map[string]int, error) {
	plans := diffPlans()
	m, err := New(Config{NumThreads: threads, Plans: plans, MaxInstances: maxInst, QueueCap: 16})
	if err != nil {
		return nil, err
	}
	ref := newRefModel(threads, maxInst, plans)
	for _, op := range ops {
		if op.force {
			m.closeGeneration(closeForced)
			ref.close(closeForced)
			ref.seen["forced"]++
			continue
		}
		slots, live := len(m.tab.index), len(m.tab.entries)
		m.process(op.slot, &op.ev)
		ref.process(op.slot, op.ev)
		if len(m.tab.index) > slots && live > 0 {
			ref.seen["growth"]++
		}
	}
	m.Close()
	ref.close(closeFinal)
	got, want := m.Violations(), ref.log
	if len(got) != 0 || len(want) != 0 {
		if !reflect.DeepEqual(got, want) {
			return ref.seen, fmt.Errorf("violation logs differ (threads=%d max=%d):\n monitor:   %v\n reference: %v",
				threads, maxInst, got, want)
		}
	}
	st := m.Stats()
	st = Stats{Events: st.Events, Instances: st.Instances, Flushes: st.Flushes, Quarantined: st.Quarantined}
	if st != ref.st {
		return ref.seen, fmt.Errorf("stats differ (threads=%d max=%d): monitor %+v, reference %+v",
			threads, maxInst, st, ref.st)
	}
	return ref.seen, nil
}

// TestTableOverflowReprobes: the instance that overflows the table is
// indexed in the new epoch at its own home slot, not at the slot its
// probe reached before the close. The keys are chosen so that the probe
// collides (random streams rarely do at the moment of an overflow).
func TestTableOverflowReprobes(t *testing.T) {
	dropSpare() // a fresh table's index has initialIndex slots
	mask := uint64(initialIndex - 1)
	home := func(k2 uint64) uint64 { return hash2(1000, k2) & mask }
	c := uint64(3)
	for home(c) != home(1) {
		c++
	}
	br := func(tid int32, k2 uint64) diffOp {
		return diffOp{slot: int(tid), ev: branchEv(tid, 1, k2, 5, true)}
	}
	// MaxInstances 2: the third key (c, homed on key 1's slot) overflows
	// the table, then thread 1's report of c must find thread 0's.
	ops := []diffOp{br(0, 1), br(0, 2), br(0, c), br(1, c)}
	if _, err := runOps(2, 2, ops); err != nil {
		t.Fatal(err)
	}
}

// diffInput generates a random stream for seed. Every third seed keeps
// only branch records and uses the default MaxInstances, so a generation
// grows past the index's first size and the index grows mid-generation.
func diffInput(seed int64) []byte {
	rng := rand.New(rand.NewSource(seed))
	data := make([]byte, 2+5*(1+rng.Intn(800)))
	rng.Read(data)
	if seed%3 == 0 {
		data[1] = 0
		for i := 2; i < len(data); i += 5 {
			if s := data[i] % 16; s >= 11 {
				data[i] -= s - 10 // a burst instead of a control op
			}
		}
	}
	return data
}

func dropSpare() {
	select {
	case <-spare:
	default:
	}
}

// TestTableMatchesReference is the differential test of the flat table:
// random streams through the Monitor and the plain-map reference model
// must give identical violation logs and Stats, and together the streams
// must reach every corner case of the table.
func TestTableMatchesReference(t *testing.T) {
	cov := map[string]int{}
	for seed := int64(0); seed < 150; seed++ {
		if seed%2 == 0 {
			dropSpare() // start from an empty table, not the last one
		}
		seen, err := runDiff(diffInput(seed))
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		for k, n := range seen {
			cov[k] += n
		}
	}
	t.Logf("coverage: %v", cov)
	for _, k := range []string{"duplicate", "straggler", "mismatch", "unknown", "unchecked", "overflow", "forced", "growth"} {
		if cov[k] == 0 {
			t.Errorf("no stream exercised %s", k)
		}
	}
}

// FuzzTableDifferential is TestTableMatchesReference over fuzzed streams.
func FuzzTableDifferential(f *testing.F) {
	for seed := int64(0); seed < 6; seed++ {
		f.Add(diffInput(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if _, err := runDiff(data); err != nil {
			t.Fatal(err)
		}
	})
}

// TestConcurrentMonitorsMatchReference runs differential streams on four
// goroutines at once. Only one monitor can hold the spare table; under
// -race any sharing of a table between live monitors is a reported race,
// and without it a shared table corrupts the verdicts.
func TestConcurrentMonitorsMatchReference(t *testing.T) {
	var wg sync.WaitGroup
	for w := int64(0); w < 4; w++ {
		wg.Add(1)
		go func(w int64) {
			defer wg.Done()
			for seed := 1000 + w; seed < 1080; seed += 4 {
				if _, err := runDiff(diffInput(seed)); err != nil {
					t.Errorf("seed %d: %v", seed, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
}

// sharedKeyRun runs a started monitor over one Key1 reported by two
// threads with equal signatures and different outcomes, and returns its
// verdict and the table it used.
func sharedKeyRun(t *testing.T, plans map[int]*core.CheckPlan, branch int32) ([]Violation, Stats, *table) {
	t.Helper()
	m, err := New(Config{NumThreads: 2, Plans: plans})
	if err != nil {
		t.Fatal(err)
	}
	tab := m.tab
	in := newFeed(m, 2)
	m.Start()
	for tid := int32(0); tid < 2; tid++ {
		in.Send(Event{Kind: EvBranch, Thread: tid, BranchID: branch, Key1: 77, Key2: 1, Sig: 5, Taken: tid == 0})
		in.Send(Event{Kind: EvDone, Thread: tid})
	}
	m.Close()
	return m.Violations(), m.Stats(), tab
}

// TestSpareTableBindingsDoNotLeak: a monitor that reuses the spare must
// not inherit the previous run's Key1 bindings.
func TestSpareTableBindingsDoNotLeak(t *testing.T) {
	dropSpare()
	planA := &core.CheckPlan{BranchID: 1, Kind: core.CheckShared, Reason: core.ReasonChecked}
	planB := &core.CheckPlan{BranchID: 2, Kind: core.CheckPartial, Reason: core.ReasonChecked}
	_, _, tabA := sharedKeyRun(t, map[int]*core.CheckPlan{1: planA}, 1)
	if len(spare) != 1 {
		t.Fatal("a clean run's table was not kept as the spare")
	}
	gotV, gotS, tabB := sharedKeyRun(t, map[int]*core.CheckPlan{2: planB}, 2)
	if tabB != tabA {
		t.Fatal("the second monitor did not reuse the spare table")
	}
	dropSpare()
	wantV, wantS, tabF := sharedKeyRun(t, map[int]*core.CheckPlan{2: planB}, 2)
	if tabF == tabA {
		t.Fatal("the reference monitor reused the spare table")
	}
	if len(wantV) != 1 || wantS.Quarantined != 0 {
		t.Fatalf("fresh monitor: violations %v, stats %+v; want one partial violation", wantV, wantS)
	}
	if !reflect.DeepEqual(gotV, wantV) || gotS != wantS {
		t.Errorf("reused table differs from a fresh one:\n reused: %v %+v\n fresh:  %v %+v", gotV, gotS, wantV, wantS)
	}
}

// TestSpareTableUnbound: the next monitor takes the spare table with no
// binding left in its array or its index. Half the Key1s share one hash,
// so some bindings sit past their home slot, and the index grows twice.
func TestSpareTableUnbound(t *testing.T) {
	dropSpare()
	tab := takeTable(2)
	for i := range uint64(200) {
		k1 := i + 1
		if i%2 == 0 {
			k1 *= goldenInv // hash2(k1, 0) is the same for every such k1
		}
		tab.bind(k1, testPlans()[1], 1000)
	}
	if len(tab.binds) < 100 || len(tab.bindIndex) <= initialBinds {
		t.Fatalf("%d bindings in %d slots: the set-up did not bind and grow", len(tab.binds), len(tab.bindIndex))
	}
	releaseTable(tab)
	if got := takeTable(2); got != tab {
		t.Fatal("the spare was not taken")
	}
	if n := len(tab.binds); n != 0 {
		t.Errorf("%d bindings left", n)
	}
	for s, v := range tab.bindIndex {
		if v != 0 {
			t.Fatalf("index slot %d still holds binding %d", s, v-1)
		}
	}
}

// TestSpareTableNotKeptAfterFloodOrFailure: a table grown past
// spareTableBytes, and the table of a monitor that panicked, are never
// handed to the next monitor.
func TestSpareTableNotKeptAfterFloodOrFailure(t *testing.T) {
	dropSpare()
	m, err := New(Config{NumThreads: 2, Plans: testPlans()})
	if err != nil {
		t.Fatal(err)
	}
	in := newFeed(m, 2)
	m.Start()
	for i := uint64(0); i < 120_000; i++ {
		in.Send(branchEv(0, 1, i, 5, true))
	}
	in.Send(Event{Kind: EvDone, Thread: 0})
	in.Send(Event{Kind: EvDone, Thread: 1})
	m.Close()
	if len(spare) != 0 {
		t.Errorf("a flooded table (%d bytes) was kept as the spare", (<-spare).footprint())
	}

	sharedKeyRun(t, testPlans(), 1)
	if len(spare) != 1 {
		t.Fatal("a clean run's table was not kept as the spare")
	}
	m, err = New(Config{NumThreads: 2, Plans: testPlans(), EventTap: func(ev *Event) {
		if ev.Kind == EvBranch {
			panic("injected monitor fault")
		}
	}})
	if err != nil {
		t.Fatal(err)
	}
	in = newFeed(m, 2)
	m.Start()
	in.Send(branchEv(0, 1, 1, 5, true))
	in.Send(Event{Kind: EvDone, Thread: 0})
	in.Send(Event{Kind: EvDone, Thread: 1})
	m.Close()
	if m.Health() != Failed {
		t.Fatalf("Health = %v, want Failed", m.Health())
	}
	if len(spare) != 0 {
		t.Error("a failed monitor's table was kept as the spare")
	}
}

// TestSpareTableAllocsFlat is the alloc gate for the spare table: once a
// monitor of the same shape has closed, a run's allocation count is the
// fixed set-up (queues, Senders, the Monitor itself) whatever its
// generation's instance count.
func TestSpareTableAllocsFlat(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; alloc gate runs in the non-race jobs")
	}
	const threads = 2
	streams := func(n int) [][]Event {
		out := make([][]Event, threads)
		for tid := range out {
			for k := 0; k < n; k++ {
				out[tid] = append(out[tid], branchEv(int32(tid), 1, uint64(k), 5, true))
			}
			out[tid] = append(out[tid], Event{Kind: EvDone, Thread: int32(tid)})
		}
		return out
	}
	run := func(evs [][]Event) {
		m, err := New(Config{NumThreads: threads, Plans: testPlans()})
		if err != nil {
			t.Fatal(err)
		}
		m.Start()
		for tid, s := range evs {
			m.Sender(tid).SendBatch(s)
		}
		m.Close()
		if st := m.Stats(); m.Detected() || st.Quarantined != 0 || st.Instances != uint64(len(evs[0])-1) {
			t.Fatalf("run not clean: %+v %v", st, m.Violations())
		}
	}
	small, large := streams(1_000), streams(12_000)
	run(large) // the warm monitor of the same shape
	allocSmall := testing.AllocsPerRun(5, func() { run(small) })
	allocLarge := testing.AllocsPerRun(5, func() { run(large) })
	t.Logf("allocs per run: %.0f at 1k instances, %.0f at 12k", allocSmall, allocLarge)
	if allocLarge > allocSmall+2 {
		t.Errorf("allocations grow with the instance count: %.0f at 1k, %.0f at 12k", allocSmall, allocLarge)
	}
}

// TestTableFootprint pins the table's layout — 32-byte entries, 4-byte
// index slots and 16-byte reports — and bounds the footprint of the
// largest generation the bundled kernels make at two threads: raytrace's
// 32k single-report instances. With 48-byte entries, 8-byte index slots
// and 24-byte reports the table took 2,384,880 bytes for it; it now
// takes 1,360,144. A 40-byte entry or an 8-byte index slot alone would
// pass the bound.
func TestTableFootprint(t *testing.T) {
	if n := unsafe.Sizeof(entry{}); n != 32 {
		t.Errorf("entry is %d bytes, want 32", n)
	}
	if n := unsafe.Sizeof(Report{}); n != 16 {
		t.Errorf("Report is %d bytes, want 16", n)
	}
	var tab table
	if a, b := unsafe.Sizeof(tab.index[0]), unsafe.Sizeof(tab.bindIndex[0]); a != 4 || b != 4 {
		t.Errorf("index slots are %d bytes (level 2) and %d bytes (level 1), want 4", a, b)
	}
	dropSpare()
	m, err := New(Config{NumThreads: 2, Plans: testPlans()})
	if err != nil {
		t.Fatal(err)
	}
	for k := range uint64(32 << 10) {
		ev := branchEv(0, 1, k, 5, true)
		m.process(0, &ev)
	}
	got := m.tab.footprint()
	m.Close()
	t.Logf("footprint of 32k single-report instances: %d bytes", got)
	const limit = 1536 << 10
	if got > limit {
		t.Errorf("footprint %d bytes, want at most %d", got, limit)
	}
}

// TestTableEpochWraps: the level-2 index is emptied by bumping its 8-bit
// epoch, so when the epoch wraps the whole index must be cleared, or a
// slot last written maxEpoch closes earlier would read as live. Every
// generation inserts keys of its own; generation 0's, whose slots are
// never written again, must read as absent in every later generation.
func TestTableEpochWraps(t *testing.T) {
	tab := &table{threads: 2}
	b := tab.bind(1000, testPlans()[1], 1)
	const perGen = 8
	for gen := range uint64(3 * maxEpoch) {
		for k := range uint64(perGen) {
			if i, _ := tab.find(b, 1000, k); i >= 0 && gen > 0 {
				t.Fatalf("generation %d: generation 0's key %d reads as entry %d", gen, k, i)
			}
		}
		for k := gen * perGen; k < (gen+1)*perGen; k++ {
			i, slot := tab.find(b, 1000, k)
			if i >= 0 {
				t.Fatalf("generation %d: new key %d reads as entry %d", gen, k, i)
			}
			i = tab.insert(b, 1000, k, slot)
			if got, _ := tab.find(b, 1000, k); got != i {
				t.Fatalf("generation %d: key %d inserted as entry %d, found as %d", gen, k, i, got)
			}
		}
		tab.reset()
	}
}

// TestMaxInstancesClamped: a MaxInstances past what a 24-bit entry number
// can index is clamped to it.
func TestMaxInstancesClamped(t *testing.T) {
	for _, n := range []int{maxTableInstances, maxTableInstances + 1, 1 << 30} {
		m, err := New(Config{NumThreads: 2, Plans: testPlans(), MaxInstances: n})
		if err != nil {
			t.Fatal(err)
		}
		if m.maxInstances != maxTableInstances {
			t.Errorf("MaxInstances %d: monitor bound %d, want %d", n, m.maxInstances, maxTableInstances)
		}
		m.Close()
	}
}

package monitor

import (
	"math/bits"
	"slices"
	"unsafe"

	"blockwatch/internal/core"
)

// table is the monitor's two-level instance table (paper §III-B), laid out
// flat so a barrier generation costs no per-instance allocation or free:
//
//   - Level 1 binds each Key1 (call-site path + static branch) to its check
//     plan. The bindings sit in a dense array in the order they were made,
//     found through an open-addressed index of 4-byte slots, so a
//     binding's position is fixed for the run and an entry names its
//     binding by that position. A binding is made by the first checked
//     report of a Key1 and lasts for the run; it survives generation
//     closes and is cleared only when the table is handed to the next
//     monitor. The bindings count against the monitor's MaxInstances, and
//     their probes stop after maxProbe slots too: a Key1 past either bound
//     is refused (see bind).
//   - Level 2 holds the generation's branch instances as dense 32-byte
//     entries in insertion order, found through an open-addressed index of
//     4-byte slots keyed by (Key1, Key2) and matched on (binding, Key2). A
//     slot holds epoch<<24 | entry+1; a slot written under an older epoch
//     reads as empty, and the whole index is cleared when the 8-bit epoch
//     wraps. A probe stops after maxProbe slots, so keys crafted to
//     collide cost O(maxProbe) each (see find).
//   - An entry keeps its first report inline. The second report moves the
//     instance into a block of NumThreads reports in the generation's
//     report arena, so CheckReports sees one contiguous slice. Reports past
//     NumThreads (duplicates and stragglers, which only a fault produces)
//     spill to a small map holding the instance's whole report set.
//
// Closing a generation walks the entries, then bumps the epoch and
// truncates the entries and the arena: no per-key delete, no free list and
// no pointer per instance, so the steady state allocates nothing once the
// slices have grown to the largest generation seen.
type table struct {
	threads int // reports per arena block (the monitor's NumThreads)

	// Level 1.
	binds     []binding // in bind order; an entry's bind indexes it
	bindIndex []uint32  // binding+1, 0 = free; linear probing
	bindShift uint8     // 64 - log2(len(bindIndex)): a hash's top bits pick the slot

	// Level 2.
	index   []uint32 // epoch<<indexBits | entry+1, linear probing
	shift   uint8    // 64 - log2(len(index))
	epoch   uint32   // 1..maxEpoch once the index exists
	entries []entry
	arena   []Report
	spill   map[int32][]Report // entry → every report, once past threads
}

// binding is one Key1's check plan.
type binding struct {
	key1 uint64
	plan *core.CheckPlan
}

// entry is one branch instance of the current generation, 32 bytes. Key1
// and the plan are its binding's, and its first report is stored field by
// field, with Taken packed into the thread word (a report's thread is
// validated to lie in [0, NumThreads) before it is inserted) and the
// checked flag into the count.
type entry struct {
	key2   uint64
	sig    uint64 // first report
	bind   int32  // index of the Key1 binding in table.binds
	thread uint32 // first report: Thread | Taken<<31
	count  uint32 // reports received | checked<<31
	off    int32  // arena block offset, valid once count ≥ 2
}

// flagBit is the top bit of entry.thread (the first report's Taken) and
// of entry.count (checked).
const flagBit = 1 << 31

// first returns the instance's first report.
func (e *entry) first() Report {
	return Report{Sig: e.sig, Thread: int32(e.thread &^ flagBit), Taken: e.thread&flagBit != 0}
}

// reported is the number of reports the instance has received.
func (e *entry) reported() int { return int(e.count &^ flagBit) }

// checked reports whether the instance's current report set was checked.
func (e *entry) checked() bool { return e.count&flagBit != 0 }

const (
	initialIndex = 1 << 10 // level-2 index slots on first use
	initialBinds = 1 << 6  // level-1 slots on first use

	// indexBits is the width of a level-2 index slot's entry number; the
	// epoch takes the 8 bits above it and wraps after maxEpoch closes.
	indexBits = 24
	maxEpoch  = 1<<(32-indexBits) - 1
	// maxTableInstances is the largest MaxInstances a monitor honours,
	// so that entry+1 fits in indexBits.
	maxTableInstances = 1<<indexBits - 1

	// maxProbe caps a probe at either level. Past it, a level-2 find
	// gives up and the monitor closes the generation (closeOverflow),
	// which empties the index; a level-1 bind is refused. Keys from an
	// untrusted client can be crafted to share one hash, and without the
	// cap each such insert would walk the whole cluster, O(n²) per
	// generation. With a good hash at the index's load
	// of at most one half, a probe passes 128 slots with probability
	// about e^-25 (a cluster of length L has probability about
	// e^-0.19·L), so a clean run never reaches the cap.
	maxProbe = 128

	// spareTableBytes caps the footprint of a table kept for the next
	// monitor. The bundled kernels at two threads need up to 1.6 MiB,
	// mostly for raytrace's 32k single-report instances in one
	// generation (TestTableFootprint); a table grown by a MaxInstances
	// flood (about 40 MB at the default) is left to the garbage
	// collector.
	spareTableBytes = 4 << 20
)

// spare holds at most one idle table for the next monitor in the process.
// A one-slot channel, not a sync.Pool: a pool keeps a copy per P and
// another in its victim cache, which multiplies the retained heap when
// several checkers run at once (a daemon's sessions, a campaign's
// workers), while one spare already serves the common case of runs in
// sequence.
var spare = make(chan *table, 1)

// takeTable returns the spare table reset for a monitor of the given
// thread count, or a new empty one when another monitor holds the spare.
func takeTable(threads int) *table {
	var t *table
	select {
	case t = <-spare:
		t.unbindAll()
	default:
		t = &table{}
	}
	t.threads = threads
	return t
}

// releaseTable offers a monitor's table as the spare after its final
// close. A table past spareTableBytes is dropped, as is any table when
// the spare slot is already taken.
func releaseTable(t *table) {
	t.spill = nil
	if t.footprint() > spareTableBytes {
		return
	}
	select {
	case spare <- t:
	default:
	}
}

// footprint is the table's retained memory in bytes.
func (t *table) footprint() int {
	return cap(t.binds)*int(unsafe.Sizeof(binding{})) +
		(cap(t.bindIndex)+cap(t.index))*int(unsafe.Sizeof(uint32(0))) +
		cap(t.entries)*int(unsafe.Sizeof(entry{})) +
		cap(t.arena)*int(unsafe.Sizeof(Report{}))
}

// hash2 is the index hash of a key pair: Fibonacci hashing, one multiply
// by 2^64/φ, whose top bits (the slot, taken with a shift) depend on
// every bit of both keys. Key1 and Key2 are already splitmix outputs in
// a real run, so the combine only has to spread them; tests use small
// sequential keys, which the multiply spreads as well. Pairs with equal
// k1 ^ rot32(k2) share a hash: that is the family a flooding client
// would send, and maxProbe bounds what it costs.
func hash2(k1, k2 uint64) uint64 {
	return (k1 ^ bits.RotateLeft64(k2, 32)) * 0x9e3779b97f4a7c15
}

// slotShift is the shift that turns a hash into a slot of a table of n
// (a power of two) slots.
func slotShift(n int) uint8 { return uint8(64 - bits.TrailingZeros(uint(n))) }

// binding returns the index of Key1's binding, or -1 when Key1 is
// unbound.
func (t *table) binding(k1 uint64) int32 {
	if len(t.binds) == 0 {
		return -1
	}
	mask := uint64(len(t.bindIndex) - 1)
	s := hash2(k1, 0) >> t.bindShift
	for range maxProbe {
		v := t.bindIndex[s]
		if v == 0 {
			return -1
		}
		if t.binds[v-1].key1 == k1 {
			return int32(v - 1)
		}
		s = (s + 1) & mask
	}
	return -1
}

// bind binds k1, which must be unbound, to plan and returns the
// binding's index. It returns -1, and binds nothing, when limit Key1s
// are bound already or no slot within maxProbe of k1's home is free: the
// bindings last for the run, so unlike the instances and their index,
// they are not emptied by a generation close, and a Key1 past either
// bound is refused instead.
func (t *table) bind(k1 uint64, plan *core.CheckPlan, limit int) int32 {
	n := len(t.binds)
	if n >= limit {
		return -1
	}
	if 2*(n+1) > len(t.bindIndex) {
		t.bindIndex = make([]uint32, max(2*len(t.bindIndex), initialBinds))
		t.bindShift = slotShift(len(t.bindIndex))
		for i, b := range t.binds {
			t.bindIndex[t.bindSlot(b.key1, 0, len(t.bindIndex))] = uint32(i + 1)
		}
	}
	s := t.bindSlot(k1, 0, maxProbe)
	if s < 0 {
		return -1
	}
	t.binds = append(t.binds, binding{key1: k1, plan: plan})
	t.bindIndex[s] = uint32(n + 1)
	return int32(n)
}

// bindSlot walks at most probes level-1 slots of k1's probe and returns
// the first that holds v, or -1. With v = 0 it finds the free slot a new
// binding of k1 takes; with v = binding+1, that binding's slot.
func (t *table) bindSlot(k1 uint64, v uint32, probes int) int {
	mask := uint64(len(t.bindIndex) - 1)
	s := hash2(k1, 0) >> t.bindShift
	for range probes {
		if t.bindIndex[s] == v {
			return int(s)
		}
		s = (s + 1) & mask
	}
	return -1
}

// unbindAll drops every binding for the next run, clearing only the
// level-1 slots they took.
func (t *table) unbindAll() {
	for i, b := range t.binds {
		t.bindIndex[t.bindSlot(b.key1, uint32(i+1), len(t.bindIndex))] = 0
	}
	clear(t.binds)
	t.binds = t.binds[:0]
}

// find returns the index of the current generation's entry for key2
// under binding b (whose Key1 is k1), or -1 and the free index slot where
// a new entry for the key would go. The slot is -1 when the index is
// empty, and probeCapped when maxProbe slots hold other keys: the key is
// then treated as absent, and the caller must empty the index before
// inserting it.
func (t *table) find(b int32, k1, k2 uint64) (i int32, slot int) {
	if len(t.index) == 0 {
		return -1, -1
	}
	mask := uint64(len(t.index) - 1)
	s := hash2(k1, k2) >> t.shift
	for range maxProbe {
		v := t.index[s]
		if v>>indexBits != t.epoch {
			return -1, int(s)
		}
		i := int32(v&(1<<indexBits-1)) - 1
		if e := &t.entries[i]; e.key2 == k2 && e.bind == b {
			return i, int(s)
		}
		s = (s + 1) & mask
	}
	return -1, probeCapped
}

// probeCapped is find's slot when the probe passed maxProbe.
const probeCapped = -2

// insert appends a new entry for key2 under binding b (whose Key1 is k1)
// and indexes it at slot, the free slot find returned for the key in the
// current epoch; a negative slot makes insert probe for one. Returns the
// entry's index.
func (t *table) insert(b int32, k1, k2 uint64, slot int) int32 {
	if 2*(len(t.entries)+1) > len(t.index) {
		t.grow()
		slot = -1
	}
	if slot < 0 {
		slot = t.free(hash2(k1, k2))
	}
	i := int32(len(t.entries))
	t.entries = append(t.entries, entry{key2: k2, bind: b})
	t.index[slot] = t.epoch<<indexBits | uint32(i+1)
	return i
}

// grow doubles the level-2 index and re-indexes the live entries.
func (t *table) grow() {
	t.index = make([]uint32, max(2*len(t.index), initialIndex))
	t.shift = slotShift(len(t.index))
	if t.epoch == 0 {
		t.epoch = 1 // a zeroed slot must read as empty
	}
	for i := range t.entries {
		e := &t.entries[i]
		t.index[t.free(hash2(t.binds[e.bind].key1, e.key2))] = t.epoch<<indexBits | uint32(i+1)
	}
}

// free returns the first free index slot of the current epoch's probe
// from hash h. It is not capped: it runs only after a grow, a close or on
// an empty index, on clusters that capped finds have bounded.
func (t *table) free(h uint64) int {
	mask := uint64(len(t.index) - 1)
	s := h >> t.shift
	for t.index[s]>>indexBits == t.epoch {
		s = (s + 1) & mask
	}
	return int(s)
}

// add appends r to entry i's reports and marks the instance unchecked:
// a straggler report for an already-checked instance reopens it.
func (t *table) add(i int32, r Report) {
	e := &t.entries[i]
	n := e.reported()
	switch {
	case n == 0:
		e.sig, e.thread = r.Sig, uint32(r.Thread)
		if r.Taken {
			e.thread |= flagBit
		}
	case n < t.threads:
		if n == 1 {
			off := len(t.arena)
			t.arena = slices.Grow(t.arena, t.threads)[:off+t.threads]
			t.arena[off] = e.first()
			e.off = int32(off)
		}
		t.arena[int(e.off)+n] = r
	default:
		if t.spill == nil {
			t.spill = make(map[int32][]Report)
		}
		s, ok := t.spill[i]
		if !ok {
			if n == 1 {
				s = []Report{e.first()}
			} else {
				s = append([]Report(nil), t.arena[e.off:int(e.off)+n]...)
			}
		}
		t.spill[i] = append(s, r)
	}
	e.count = uint32(n + 1)
}

// reports returns entry i's report set as one slice (nil below two
// reports, where nothing can be cross-checked). CheckReports sorts it in
// place.
func (t *table) reports(i int32) []Report {
	e := &t.entries[i]
	n := e.reported()
	switch {
	case n < 2:
		return nil
	case n <= t.threads:
		return t.arena[e.off : int(e.off)+n]
	default:
		return t.spill[i]
	}
}

// reset ends the generation: every index slot goes stale with the epoch,
// and the entries, the arena and the spill map are emptied in place. The
// level-1 bindings stay.
func (t *table) reset() {
	t.epoch++
	if t.epoch > maxEpoch {
		clear(t.index) // the epoch wrapped: old slots would read as live
		t.epoch = 1
	}
	t.entries = t.entries[:0]
	t.arena = t.arena[:0]
	clear(t.spill)
}

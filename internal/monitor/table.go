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
//     plan. The binding is made by the first checked report of a Key1 and
//     lasts for the run; it survives generation closes and is cleared only
//     when the table is handed to the next monitor. The bindings count
//     against the monitor's MaxInstances, and their probes stop after
//     maxProbe slots too: a Key1 past either bound is refused (see bind).
//   - Level 2 holds the generation's branch instances as dense entries in
//     insertion order, found through an open-addressed index keyed by
//     (Key1, Key2). An index slot holds epoch<<32 | entry+1; a slot written
//     under an older epoch reads as empty. A probe stops after maxProbe
//     slots, so keys crafted to collide cost O(maxProbe) each (see find).
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

	// Level 1: Key1 → plan, open-addressed; a nil plan marks a free slot.
	bindKeys  []uint64
	bindPlans []*core.CheckPlan
	bindShift uint8 // 64 - log2(len(bindKeys)): a hash's top bits pick the slot
	bound     int

	// Level 2.
	index   []uint64 // epoch<<32 | entry+1, linear probing
	shift   uint8    // 64 - log2(len(index))
	epoch   uint32
	entries []entry
	arena   []Report
	spill   map[int32][]Report // entry → every report, once past threads
}

// entry is one branch instance of the current generation, 48 bytes: the
// first report is stored field by field, since a Report's padding would
// take the entry to 64.
type entry struct {
	key1, key2 uint64
	plan       *core.CheckPlan // the Key1 binding
	sig        uint64          // first report
	thread     int32           // first report
	count      int32           // reports received
	off        int32           // arena block offset, valid once count ≥ 2
	taken      bool            // first report
	checked    bool
}

func (e *entry) first() Report { return Report{Thread: e.thread, Sig: e.sig, Taken: e.taken} }

const (
	initialIndex = 1 << 10 // level-2 index slots on first use
	initialBinds = 1 << 6  // level-1 slots on first use

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
	// monitor. The bundled kernels at two threads need up to 2.3 MiB
	// (raytrace: 32k single-report instances in one generation); a table
	// grown by a MaxInstances flood (about 64 MB at the default) is
	// left to the garbage collector.
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
		clear(t.bindKeys)
		clear(t.bindPlans)
		t.bound = 0
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
	return cap(t.bindKeys)*int(unsafe.Sizeof(uint64(0))+unsafe.Sizeof((*core.CheckPlan)(nil))) +
		cap(t.index)*int(unsafe.Sizeof(uint64(0))) +
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

// binding returns Key1's plan, or nil when Key1 is unbound.
func (t *table) binding(k1 uint64) *core.CheckPlan {
	if t.bound == 0 {
		return nil
	}
	mask := uint64(len(t.bindKeys) - 1)
	s := hash2(k1, 0) >> t.bindShift
	for range maxProbe {
		p := t.bindPlans[s]
		if p == nil || t.bindKeys[s] == k1 {
			return p
		}
		s = (s + 1) & mask
	}
	return nil
}

// bind records Key1's plan; k1 must be unbound. It reports false, and
// binds nothing, when limit Key1s are bound already or no slot within
// maxProbe of k1's home is free: the bindings last for the run, so unlike
// the instances and their index, they are not emptied by a generation
// close, and a Key1 past either bound is refused instead.
func (t *table) bind(k1 uint64, plan *core.CheckPlan, limit int) bool {
	if t.bound >= limit {
		return false
	}
	if 2*(t.bound+1) > len(t.bindKeys) {
		keys, plans := t.bindKeys, t.bindPlans
		n := max(2*len(keys), initialBinds)
		t.bindKeys, t.bindPlans = make([]uint64, n), make([]*core.CheckPlan, n)
		t.bindShift = slotShift(n)
		for s, p := range plans {
			if p != nil {
				t.bindAt(keys[s], p, len(t.bindKeys))
			}
		}
	}
	if !t.bindAt(k1, plan, maxProbe) {
		return false
	}
	t.bound++
	return true
}

// bindAt stores (k1, plan) in the first free slot of k1's probe, looking
// at most probes slots, and reports whether it found one.
func (t *table) bindAt(k1 uint64, plan *core.CheckPlan, probes int) bool {
	mask := uint64(len(t.bindKeys) - 1)
	s := hash2(k1, 0) >> t.bindShift
	for range probes {
		if t.bindPlans[s] == nil {
			t.bindKeys[s], t.bindPlans[s] = k1, plan
			return true
		}
		s = (s + 1) & mask
	}
	return false
}

// find returns the index of the current generation's (k1, k2) entry, or
// -1 and the free index slot where a new entry for the key would go. The
// slot is -1 when the index is empty, and probeCapped when maxProbe slots
// hold other keys: the key is then treated as absent, and the caller
// must empty the index before inserting it.
func (t *table) find(k1, k2 uint64) (i int32, slot int) {
	if len(t.index) == 0 {
		return -1, -1
	}
	mask := uint64(len(t.index) - 1)
	s := hash2(k1, k2) >> t.shift
	for range maxProbe {
		v := t.index[s]
		if uint32(v>>32) != t.epoch {
			return -1, int(s)
		}
		e := &t.entries[uint32(v)-1]
		if e.key1 == k1 && e.key2 == k2 {
			return int32(uint32(v) - 1), int(s)
		}
		s = (s + 1) & mask
	}
	return -1, probeCapped
}

// probeCapped is find's slot when the probe passed maxProbe.
const probeCapped = -2

// insert appends a new (k1, k2) entry bound to plan and indexes it at
// slot, the free slot find returned for the key in the current epoch; a
// negative slot makes insert probe for one. Returns the entry's index.
func (t *table) insert(k1, k2 uint64, plan *core.CheckPlan, slot int) int32 {
	if 2*(len(t.entries)+1) > len(t.index) {
		t.grow()
		slot = -1
	}
	if slot < 0 {
		slot = t.free(hash2(k1, k2))
	}
	i := int32(len(t.entries))
	t.entries = append(t.entries, entry{key1: k1, key2: k2, plan: plan})
	t.index[slot] = uint64(t.epoch)<<32 | uint64(i+1)
	return i
}

// grow doubles the level-2 index and re-indexes the live entries.
func (t *table) grow() {
	t.index = make([]uint64, max(2*len(t.index), initialIndex))
	t.shift = slotShift(len(t.index))
	if t.epoch == 0 {
		t.epoch = 1 // a zeroed slot must read as empty
	}
	for i := range t.entries {
		e := &t.entries[i]
		t.index[t.free(hash2(e.key1, e.key2))] = uint64(t.epoch)<<32 | uint64(i+1)
	}
}

// free returns the first free index slot of the current epoch's probe
// from hash h. It is not capped: it runs only after a grow, a close or on
// an empty index, on clusters that capped finds have bounded.
func (t *table) free(h uint64) int {
	mask := uint64(len(t.index) - 1)
	s := h >> t.shift
	for uint32(t.index[s]>>32) == t.epoch {
		s = (s + 1) & mask
	}
	return int(s)
}

// add appends r to entry i's reports.
func (t *table) add(i int32, r Report) {
	e := &t.entries[i]
	n := int(e.count)
	switch {
	case n == 0:
		e.thread, e.sig, e.taken = r.Thread, r.Sig, r.Taken
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
	e.count++
}

// reports returns entry i's report set as one slice (nil below two
// reports, where nothing can be cross-checked). CheckReports sorts it in
// place.
func (t *table) reports(i int32) []Report {
	e := &t.entries[i]
	n := int(e.count)
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
	if t.epoch == 0 {
		clear(t.index) // the epoch wrapped: old slots would read as live
		t.epoch = 1
	}
	t.entries = t.entries[:0]
	t.arena = t.arena[:0]
	clear(t.spill)
}

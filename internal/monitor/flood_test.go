package monitor

import (
	"math/bits"
	"testing"
	"time"

	"blockwatch/internal/metrics"
)

// golden is hash2's multiplier; goldenInv is its inverse mod 2^64.
const golden = 0x9e3779b97f4a7c15

var goldenInv = func() uint64 {
	inv := uint64(golden) // Newton's iteration doubles the correct low bits
	for range 5 {
		inv *= 2 - golden*inv
	}
	return inv
}()

// floodEvents returns n single-report branch events of one key family:
//   - "plain": ordinary distinct key pairs;
//   - "key1": ordinary distinct Key1s, one instance each;
//   - "index": Key1 = c ^ rot32(Key2), so every pair has the same index
//     hash and lands in one level-2 probe cluster;
//   - "binding": Key1 = j·golden⁻¹, so every Key1 has the binding hash j
//     and lands in one level-1 probe cluster.
//
// The crafted families are what a hostile client would send.
func floodEvents(n int, family string) []Event {
	evs := make([]Event, n)
	for i := range evs {
		k2 := uint64(i) * golden
		k1 := uint64(1000)
		switch family {
		case "key1":
			k1 = uint64(i+1) * golden
		case "index":
			k1 = 0xdeadbeef ^ bits.RotateLeft64(k2, 32)
		case "binding":
			k1 = uint64(i+1) * goldenInv
		}
		evs[i] = Event{Kind: EvBranch, Thread: 0, BranchID: 1, Key1: k1, Key2: k2, Sig: 5}
	}
	return evs
}

// TestTableFloodBounded: keys crafted to share one hash cost each event
// O(maxProbe), not O(cluster). An index probe that passes the cap closes
// the generation, and the closes are counted; a Key1 that cannot be bound
// within the cap is quarantined. Without the caps, 40k crafted events took
// seconds (quadratic in the count) where ordinary keys take tens of
// milliseconds.
func TestTableFloodBounded(t *testing.T) {
	const n = 40_000
	feed := func(family string) (time.Duration, uint64, Stats) {
		evs := floodEvents(n, family)
		reg := metrics.NewRegistry()
		m, err := New(Config{NumThreads: 2, Plans: testPlans(), Metrics: reg})
		if err != nil {
			t.Fatal(err)
		}
		start := time.Now()
		for i := range evs {
			m.process(0, &evs[i])
		}
		took := time.Since(start)
		m.Close()
		closes, _ := reg.Snapshot().Counter("bw_monitor_probe_closes_total")
		t.Logf("%d %s events: %v, %d probe-cap closes, %+v", n, family, took, closes, m.Stats())
		return took, closes, m.Stats()
	}
	bound := 2 * time.Second
	if raceEnabled {
		bound *= 10
	}

	if _, closes, st := feed("plain"); closes != 0 || st.Quarantined != 0 {
		t.Errorf("ordinary keys: %d probe-cap closes and %d quarantined, want 0", closes, st.Quarantined)
	}

	took, closes, st := feed("index")
	// A close happens each time maxProbe colliding entries fill the cluster.
	if want := uint64(n / (maxProbe + 1)); closes < want {
		t.Errorf("index flood: %d probe-cap closes, want at least %d", closes, want)
	}
	if st.Flushes != closes || st.Events != n || st.Quarantined != 0 {
		t.Errorf("index flood: Flushes = %d, Events = %d, Quarantined = %d; want %d, %d, 0",
			st.Flushes, st.Events, st.Quarantined, closes, n)
	}
	if took > bound {
		t.Errorf("index flood: %d events took %v, want under %v", n, took, bound)
	}

	took, closes, st = feed("binding")
	if closes != 0 || st.Quarantined < n/2 {
		t.Errorf("binding flood: %d probe-cap closes and %d quarantined, want 0 and most of %d",
			closes, st.Quarantined, n)
	}
	if took > bound {
		t.Errorf("binding flood: %d events took %v, want under %v", n, took, bound)
	}
}

// TestBindingsBounded: the Key1 bindings last for the run, so a client
// that streams distinct Key1s would grow them without limit; they count
// against MaxInstances instead, and the reports of a Key1 past the cap
// are quarantined, never checked, so they raise no violation.
func TestBindingsBounded(t *testing.T) {
	const limit = 64
	evs := floodEvents(3*limit, "key1")
	m, err := New(Config{NumThreads: 2, Plans: testPlans(), MaxInstances: limit})
	if err != nil {
		t.Fatal(err)
	}
	for i := range evs {
		m.process(0, &evs[i])
		if len(m.tab.binds) > limit {
			t.Fatalf("after %d distinct Key1s: %d bindings, want at most %d", i+1, len(m.tab.binds), limit)
		}
	}
	m.Close()
	st := m.Stats()
	if st.Quarantined != 2*limit || m.Detected() || m.Health() != Degraded {
		t.Errorf("%d distinct Key1s at MaxInstances %d: quarantined %d, detected %t, health %s; want %d, false, degraded",
			len(evs), limit, st.Quarantined, m.Detected(), m.Health(), 2*limit)
	}
}

package blockwatch

import (
	"testing"
	"time"
)

// TestKernelsCleanUnderOverflowPolicies is the fail-open acceptance sweep:
// every bundled SPLASH kernel, fault-free, under every overflow policy with
// a queue small enough to actually overflow. Dropping events may cost
// coverage (Health degrades) but must never manufacture a violation — every
// check rule is subset-closed.
func TestKernelsCleanUnderOverflowPolicies(t *testing.T) {
	policies := []OverflowPolicy{OverflowBlock, OverflowDropNewest, OverflowBlockTimeout}
	var dropsSeen uint64
	for _, bench := range Benchmarks() {
		prog, err := LoadBenchmark(bench)
		if err != nil {
			t.Fatal(err)
		}
		for _, pol := range policies {
			t.Run(bench+"/"+pol.String(), func(t *testing.T) {
				res, err := prog.Run(RunOptions{
					Threads: 4, Protect: true, QueueCap: 16, Overflow: pol,
				})
				if err != nil {
					t.Fatal(err)
				}
				if res.Detected {
					t.Fatalf("false positive under %s: %v", pol, res.Violations)
				}
				if res.Crashed || res.Hung {
					t.Fatalf("fault-free run misbehaved under %s: %+v", pol, res)
				}
				if pol == OverflowBlock {
					if res.DroppedEvents != 0 {
						t.Fatalf("lossless policy dropped %d events", res.DroppedEvents)
					}
					if res.Health != "healthy" {
						t.Fatalf("lossless run degraded: health=%s", res.Health)
					}
				} else if res.DroppedEvents > 0 && res.Health != "degraded" {
					t.Fatalf("dropped %d events but health=%s", res.DroppedEvents, res.Health)
				}
				dropsSeen += res.DroppedEvents
			})
		}
	}
	if dropsSeen == 0 {
		t.Error("tiny QueueCap never triggered a drop: the sweep exercised nothing")
	}
}

// TestKernelsNeverHitProbeCap: the instance table caps its probes so that
// keys crafted to collide cost a bounded amount each; honest keys must
// never reach the cap. Every bundled kernel, fault-free and protected at
// several thread counts: no probe-cap close, nothing quarantined.
func TestKernelsNeverHitProbeCap(t *testing.T) {
	for _, bench := range Benchmarks() {
		prog, err := LoadBenchmark(bench)
		if err != nil {
			t.Fatal(err)
		}
		for _, threads := range []int{2, 4, 32} {
			reg := NewMetricsRegistry()
			res, err := prog.Run(RunOptions{Threads: threads, Protect: true, Metrics: reg})
			if err != nil {
				t.Fatal(err)
			}
			closes, _ := reg.Snapshot().Counter("bw_monitor_probe_closes_total")
			if closes != 0 || res.QuarantinedEvents != 0 || res.Health != "healthy" {
				t.Errorf("%s at %d threads: %d probe-cap closes, %d quarantined, health %s; want 0, 0, healthy",
					bench, threads, closes, res.QuarantinedEvents, res.Health)
			}
		}
	}
}

// TestRunWithWatchdogStaysHealthy checks the facade wiring of the stall
// watchdog: an ordinary run with a generous deadline must complete with the
// watchdog never firing.
func TestRunWithWatchdogStaysHealthy(t *testing.T) {
	prog, err := Compile(demoSrc, "demo")
	if err != nil {
		t.Fatal(err)
	}
	res, err := prog.Run(RunOptions{
		Threads: 4, Protect: true, StallDeadline: 5 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Detected {
		t.Fatalf("false positive: %v", res.Violations)
	}
	if res.Health != "healthy" || res.WatchdogFires != 0 {
		t.Fatalf("health=%s watchdog-fires=%d, want healthy and 0", res.Health, res.WatchdogFires)
	}
}

// TestRunForwardsMonitorKnobs checks that Run hands StallDeadline to
// the monitor it builds: the knob changes what the monitor observably
// does.
func TestRunForwardsMonitorKnobs(t *testing.T) {
	t.Run("StallDeadline", func(t *testing.T) {
		// Thread 1 reports the shared branch at once and waits at the
		// barrier; thread 0 first spins in a critical section, whose
		// branches send no events, so the open instance stalls the monitor.
		prog, err := Compile(`
global int n;
global int acc[8];
func void setup() { n = 3; }
func void slave() {
	int me = tid();
	int s = 0;
	int i;
	if (me == 0) {
		lock(0);
		for (i = 0; i < 1000000; i = i + 1) {
			s = s + i;
		}
		unlock(0);
	}
	if (n > 2) {
		s = s + 1;
	}
	acc[me] = s;
	barrier();
	if (me == 0) {
		output(acc[0] + acc[1]);
	}
}`, "stall")
		if err != nil {
			t.Fatal(err)
		}
		res, err := prog.Run(RunOptions{Threads: 2, Protect: true, StallDeadline: time.Millisecond})
		if err != nil {
			t.Fatal(err)
		}
		if res.Detected {
			t.Fatalf("false positive: %v", res.Violations)
		}
		if res.WatchdogFires == 0 {
			t.Fatalf("health=%s watchdog-fires=0, want the 1ms watchdog to fire", res.Health)
		}
	})
}

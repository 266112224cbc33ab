package interp

import (
	"runtime"
	"testing"
)

// TestBarrierSpinNoticesMissingPeer: with every thread on a processor of
// its own, barrier waiters spin before they park. A peer that exits or
// traps instead of arriving, whether before or during that spin, must
// still be noticed: the waiter's deadlock trap fires and the run ends.
func TestBarrierSpinNoticesMissingPeer(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(max(2, runtime.GOMAXPROCS(0))))
	if b := newSimBarrier(nil, 2, 0); !b.spin {
		t.Fatal("a 2-thread barrier does not spin at GOMAXPROCS >= 2")
	}
	cases := map[string]string{
		"exit": `
func void slave() {
	if (tid() == 0) {
		int i;
		int s = 0;
		for (i = 0; i < 200; i = i + 1) { s = s + i; }
		output(s);
		return;
	}
	barrier();
}`,
		"trap": `
global int a[4];
func void slave() {
	if (tid() == 0) {
		int i;
		for (i = 0; i < 200; i = i + 1) { a[i % 4] = i; }
		a[tid() + 100] = 1;
	}
	barrier();
}`,
	}
	for name, src := range cases {
		t.Run(name, func(t *testing.T) {
			for i := 0; i < 20; i++ {
				res := run(t, src, 2)
				deadlock, oob := false, false
				for _, tr := range res.Traps {
					deadlock = deadlock || (tr != nil && tr.Kind == TrapDeadlock)
					oob = oob || (tr != nil && tr.Kind == TrapOOB)
				}
				if name == "trap" && !oob {
					t.Fatalf("run %d: thread 0 did not trap, traps = %v", i, res.Traps)
				}
				if !deadlock || !res.Hung() {
					t.Fatalf("run %d: want a deadlock trap from the waiting thread, traps = %v", i, res.Traps)
				}
			}
		})
	}
}

package remote

import (
	"bytes"
	"io"
	"testing"

	"blockwatch/internal/core"
	"blockwatch/internal/monitor"
	"blockwatch/internal/wire"
)

// TestServerIngestZeroAlloc is the CI alloc ceiling for the daemon's
// event-frame path: the session frame loop (wire.FeedFrames) decoding
// into a pooled reader and frame, checking each frame in place in the
// session's Checker, and the barrier close — the whole per-frame ingest
// pipeline — must not allocate once warm. Thread 0's frames arrive
// first, so its post-barrier frame waits in the checker's gated buffer
// until thread 1's flush closes the generation: the buffered path is
// inside the measurement too.
func TestServerIngestZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; alloc gate runs in the non-race jobs")
	}
	const threads = 2
	plans := map[int]*core.CheckPlan{
		1: {BranchID: 1, Kind: core.CheckShared, Reason: core.ReasonChecked},
	}
	chk, err := monitor.NewChecker(monitor.Config{NumThreads: threads, Plans: plans})
	if err != nil {
		t.Fatal(err)
	}

	// Two barrier generations on the wire, one thread after the other: an
	// events frame and a flush marker per thread and generation, as the
	// client's relay would emit them.
	var buf bytes.Buffer
	w := wire.NewWriter(&buf)
	for tid := 0; tid < threads; tid++ {
		for gen := 0; gen < 2; gen++ {
			evs := make([]monitor.Event, 64)
			for k := range evs {
				evs[k] = monitor.Event{Kind: monitor.EvBranch, Thread: int32(tid),
					BranchID: 1, Key1: 1000, Key2: uint64(gen<<8 | k), Sig: 5, Taken: true}
			}
			if err := w.WriteEvents(tid, evs); err != nil {
				t.Fatal(err)
			}
			if err := w.WriteFlush(tid, int32(tid)); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := w.Sync(); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()

	br := bytes.NewReader(data)
	rd := wire.NewReader(br)
	var f wire.Frame
	ingest := func() {
		start := chk.Stats().Flushes
		br.Reset(data)
		rd.Reset(br)
		if err := rd.FeedFrames(&f, chk, nil); err != io.EOF {
			t.Fatalf("FeedFrames = %v, want io.EOF", err)
		}
		if got := chk.Stats().Flushes - start; got != 2 {
			t.Fatalf("%d generations closed, want 2", got)
		}
	}
	for i := 0; i < 3; i++ {
		ingest() // warm the decode scratch, gated buffer, instance table, and report arena
	}
	if avg := testing.AllocsPerRun(50, ingest); avg != 0 {
		t.Errorf("steady-state ingest allocates %.1f times per two generations, want 0", avg)
	}
	for tid := 0; tid < threads; tid++ {
		chk.Done(tid, int32(tid))
	}
	chk.Finish()
	if chk.Detected() || chk.Health() != monitor.Healthy {
		t.Fatalf("identical streams: detected %t, health %s: %v", chk.Detected(), chk.Health(), chk.Violations())
	}
}

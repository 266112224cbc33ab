package remote

import (
	"bytes"
	"io"
	"runtime"
	"testing"

	"blockwatch/internal/core"
	"blockwatch/internal/monitor"
	"blockwatch/internal/wire"
)

// TestServerIngestZeroAlloc is the CI alloc ceiling for the daemon's
// event-frame path: decode-into on a pooled reader, SendBatch into the
// session monitor, drain, and barrier close — the whole per-frame ingest
// pipeline — must not allocate once warm. AllocsPerRun counts every
// goroutine's mallocs, so the monitor side of the pipeline is inside the
// measurement, exactly as in a live session.
func TestServerIngestZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; alloc gate runs in the non-race jobs")
	}
	const threads = 2
	plans := map[int]*core.CheckPlan{
		1: {BranchID: 1, Kind: core.CheckShared, Reason: core.ReasonChecked},
	}
	mon, err := monitor.New(monitor.Config{NumThreads: threads, Plans: plans})
	if err != nil {
		t.Fatal(err)
	}
	mon.Start()
	defer mon.Close()
	senders := make([]monitor.Sender, threads)
	for tid := range senders {
		mon.BindSender(&senders[tid], tid)
	}

	// One barrier generation on the wire: an events frame and a flush
	// marker per thread, as the client's relay would emit them.
	var buf bytes.Buffer
	w := wire.NewWriter(&buf)
	for tid := 0; tid < threads; tid++ {
		evs := make([]monitor.Event, 64)
		for k := range evs {
			evs[k] = monitor.Event{Kind: monitor.EvBranch, Thread: int32(tid),
				BranchID: 1, Key1: 1000, Key2: uint64(k), Sig: 5, Taken: true}
		}
		if err := w.WriteEvents(tid, evs); err != nil {
			t.Fatal(err)
		}
		if err := w.WriteFlush(tid, int32(tid)); err != nil {
			t.Fatal(err)
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
		start := mon.Stats().Flushes
		br.Reset(data)
		rd.Reset(br)
		for {
			if err := rd.ReadFrameInto(&f); err != nil {
				if err != io.EOF {
					t.Fatal(err)
				}
				break
			}
			switch f.Type {
			case wire.FrameEvents:
				senders[f.Slot].SendBatch(f.Events)
			case wire.FrameFlush:
				senders[f.Slot].Send(monitor.Event{Kind: monitor.EvFlush, Thread: f.Thread})
			}
		}
		for mon.Stats().Flushes == start {
			runtime.Gosched()
		}
	}
	for i := 0; i < 3; i++ {
		ingest() // warm the decode scratch, instance table, and report arena
	}
	if avg := testing.AllocsPerRun(50, ingest); avg != 0 {
		t.Errorf("steady-state ingest allocates %.1f times per generation, want 0", avg)
	}
	for tid := range senders {
		senders[tid].Send(monitor.Event{Kind: monitor.EvDone, Thread: int32(tid)})
	}
	mon.Close()
	if mon.Detected() {
		t.Fatalf("identical streams produced violations: %v", mon.Violations())
	}
}

package wire

import (
	"bytes"
	"errors"
	"io"
	"reflect"
	"testing"

	"blockwatch/internal/core"
	"blockwatch/internal/ir"
	"blockwatch/internal/metrics"
	"blockwatch/internal/monitor"
)

func testHello() *Hello {
	return &Hello{
		Version: Version,
		Program: "fft",
		Threads: 4,
		Plans: []Plan{
			{BranchID: 1, Kind: core.CheckShared},
			{BranchID: 3, Kind: core.CheckThreadID, Relation: ir.OpLt, TidOnLeft: true},
			{BranchID: 7, Kind: core.CheckPartial},
			{BranchID: 9, Kind: core.CheckUniform, TidOnLeft: false},
		},
	}
}

func testEvents(slot int) []monitor.Event {
	return []monitor.Event{
		{Kind: monitor.EvBranch, Thread: int32(slot), BranchID: 1, Key1: 0xdeadbeef, Key2: 2, Sig: 42, Taken: true},
		{Kind: monitor.EvBranch, Thread: int32(slot), BranchID: 3, Key1: 1, Key2: 1 << 60, Sig: ^uint64(0)},
		// Corrupted payload thread (differs from slot) must round-trip.
		{Kind: monitor.EvBranch, Thread: -5, BranchID: -1, Key1: 0, Key2: 0, Sig: 7, Taken: true},
	}
}

func testResult() *Result {
	return &Result{
		Health: monitor.Degraded,
		Stats:  monitor.Stats{Events: 100, Instances: 25, Flushes: 3, Dropped: 2, Quarantined: 1, Watchdog: 1, Panics: 0},
		Violations: []monitor.Violation{
			{BranchID: 3, Key1: 9, Key2: 11, Reason: "shared condition data differs between threads 0 and 2"},
			{BranchID: 3, Key1: 9, Key2: 12, Reason: "x"},
		},
	}
}

// encodeStream writes a representative full stream and returns its bytes.
func encodeStream(t testing.TB) []byte {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	if err := w.WriteHello(testHello()); err != nil {
		t.Fatal(err)
	}
	if err := w.WriteEvents(2, testEvents(2)); err != nil {
		t.Fatal(err)
	}
	if err := w.WriteFlush(2, 2); err != nil {
		t.Fatal(err)
	}
	if err := w.WriteEvents(0, testEvents(0)[:1]); err != nil {
		t.Fatal(err)
	}
	if err := w.WriteDone(0, 0); err != nil {
		t.Fatal(err)
	}
	if err := w.WriteFinish(); err != nil {
		t.Fatal(err)
	}
	if err := w.WriteResult(testResult()); err != nil {
		t.Fatal(err)
	}
	if err := w.Sync(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestRoundTrip(t *testing.T) {
	data := encodeStream(t)
	r := NewReader(bytes.NewReader(data))

	f, err := r.ReadFrame()
	if err != nil || f.Type != FrameHello {
		t.Fatalf("hello frame: %v %+v", err, f)
	}
	if !reflect.DeepEqual(f.Hello, testHello()) {
		t.Errorf("hello mismatch:\n got %+v\nwant %+v", f.Hello, testHello())
	}

	f, err = r.ReadFrame()
	if err != nil || f.Type != FrameEvents || f.Slot != 2 {
		t.Fatalf("events frame: %v %+v", err, f)
	}
	if !reflect.DeepEqual(f.Events, testEvents(2)) {
		t.Errorf("events mismatch:\n got %+v\nwant %+v", f.Events, testEvents(2))
	}

	f, err = r.ReadFrame()
	if err != nil || f.Type != FrameFlush || f.Slot != 2 || f.Thread != 2 {
		t.Fatalf("flush frame: %v %+v", err, f)
	}

	f, err = r.ReadFrame()
	if err != nil || f.Type != FrameEvents || f.Slot != 0 || len(f.Events) != 1 {
		t.Fatalf("second events frame: %v %+v", err, f)
	}

	f, err = r.ReadFrame()
	if err != nil || f.Type != FrameDone || f.Slot != 0 || f.Thread != 0 {
		t.Fatalf("done frame: %v %+v", err, f)
	}

	f, err = r.ReadFrame()
	if err != nil || f.Type != FrameFinish {
		t.Fatalf("finish frame: %v %+v", err, f)
	}

	f, err = r.ReadFrame()
	if err != nil || f.Type != FrameResult {
		t.Fatalf("result frame: %v %+v", err, f)
	}
	if !reflect.DeepEqual(f.Result, testResult()) {
		t.Errorf("result mismatch:\n got %+v\nwant %+v", f.Result, testResult())
	}

	if _, err := r.ReadFrame(); err != io.EOF {
		t.Fatalf("expected clean EOF, got %v", err)
	}
}

func TestRejectRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	if err := w.WriteReject("daemon at capacity (4 sessions)"); err != nil {
		t.Fatal(err)
	}
	if err := w.Sync(); err != nil {
		t.Fatal(err)
	}
	r := NewReader(bytes.NewReader(buf.Bytes()))
	f, err := r.ReadFrame()
	if err != nil || f.Type != FrameReject {
		t.Fatalf("reject frame: %v %+v", err, f)
	}
	if f.Reject != "daemon at capacity (4 sessions)" {
		t.Errorf("reject reason = %q", f.Reject)
	}
	if _, err := r.ReadFrame(); err != io.EOF {
		t.Fatalf("expected clean EOF, got %v", err)
	}
}

func TestPlanTableRoundTrip(t *testing.T) {
	plans := map[int]*core.CheckPlan{
		1: {BranchID: 1, Kind: core.CheckShared, Reason: core.ReasonChecked},
		2: {BranchID: 2, Kind: core.CheckNone, Reason: core.ReasonCritical}, // unchecked: not shipped
		5: {BranchID: 5, Kind: core.CheckThreadID, Relation: ir.OpEq, TidOnLeft: true, Reason: core.ReasonChecked},
	}
	h := HelloFromPlans("water", 8, plans)
	if len(h.Plans) != 2 {
		t.Fatalf("expected 2 checked plans, got %d", len(h.Plans))
	}
	back := h.PlanTable()
	if len(back) != 2 {
		t.Fatalf("plan table size %d", len(back))
	}
	for _, id := range []int{1, 5} {
		got, want := back[id], plans[id]
		if got == nil || !got.Checked() || got.Kind != want.Kind ||
			got.Relation != want.Relation || got.TidOnLeft != want.TidOnLeft {
			t.Errorf("plan %d mismatch: got %+v want %+v", id, got, want)
		}
	}
	if back[2] != nil {
		t.Errorf("unchecked plan leaked across the wire")
	}
}

func TestCRCMismatchRejected(t *testing.T) {
	data := encodeStream(t)
	// Flip one bit in every byte position in turn; every corruption must
	// surface as an error (CRC, length, magic, …), never a panic, and a
	// pure payload flip must be ErrCRC.
	for i := range data {
		corrupt := bytes.Clone(data)
		corrupt[i] ^= 0x10
		r := NewReader(bytes.NewReader(corrupt))
		var err error
		for err == nil {
			_, err = r.ReadFrame()
		}
		if err == io.EOF {
			// The flip landed somewhere that still yields a parseable
			// stream prefix — impossible for payload bytes, which the CRC
			// covers; only a length-prefix flip that truncates cleanly
			// could do this, and the frame reader reports those too.
			t.Fatalf("bit flip at offset %d went unnoticed", i)
		}
	}
}

func TestPayloadFlipIsCRCError(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	if err := w.WriteEvents(1, testEvents(1)); err != nil {
		t.Fatal(err)
	}
	if err := w.Sync(); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	data[7] ^= 0x01 // inside the payload (after 5-byte header)
	_, err := NewReader(bytes.NewReader(data)).ReadFrame()
	if !errors.Is(err, ErrCRC) {
		t.Fatalf("expected ErrCRC, got %v", err)
	}
}

func TestTruncationRejected(t *testing.T) {
	data := encodeStream(t)
	for n := 1; n < len(data); n++ {
		r := NewReader(bytes.NewReader(data[:n]))
		var err error
		for err == nil {
			_, err = r.ReadFrame()
		}
		if err == io.EOF && n < len(data) {
			// A clean EOF is only acceptable at a frame boundary.
			ok := false
			rr := NewReader(bytes.NewReader(data[:n]))
			for {
				_, e := rr.ReadFrame()
				if e != nil {
					ok = e == io.EOF
					break
				}
			}
			if !ok {
				t.Fatalf("truncation at %d not detected", n)
			}
		}
	}
}

func TestOversizedFrameRejected(t *testing.T) {
	data := []byte{FrameEvents, 0xff, 0xff, 0xff, 0xff} // 4 GiB payload claim
	_, err := NewReader(bytes.NewReader(data)).ReadFrame()
	if !errors.Is(err, ErrTooLarge) {
		t.Fatalf("expected ErrTooLarge, got %v", err)
	}
}

func TestBadMagicAndVersion(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	h := testHello()
	if err := w.WriteHello(h); err != nil {
		t.Fatal(err)
	}
	if err := w.Sync(); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()

	bad := bytes.Clone(good)
	bad[5] ^= 0xff // first magic byte (header is 5 bytes)
	_, err := NewReader(bytes.NewReader(bad)).ReadFrame()
	if err == nil {
		t.Fatal("corrupted magic accepted")
	}

	// A well-formed hello of a different version must be refused.
	var vbuf bytes.Buffer
	vw := NewWriter(&vbuf)
	vw.buf = vw.buf[:0]
	vw.u32fixed(Magic)
	vw.u64(uint64(Version + 1))
	vw.str("x")
	vw.u64(1)
	vw.u64(0)
	if err := vw.frame(FrameHello); err != nil {
		t.Fatal(err)
	}
	if err := vw.Sync(); err != nil {
		t.Fatal(err)
	}
	_, err = NewReader(bytes.NewReader(vbuf.Bytes())).ReadFrame()
	if !errors.Is(err, ErrVersion) {
		t.Fatalf("expected ErrVersion, got %v", err)
	}
}

func TestEmptyEventsFrame(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	if err := w.WriteEvents(3, nil); err != nil {
		t.Fatal(err)
	}
	if err := w.Sync(); err != nil {
		t.Fatal(err)
	}
	f, err := NewReader(bytes.NewReader(buf.Bytes())).ReadFrame()
	if err != nil || f.Slot != 3 || len(f.Events) != 0 {
		t.Fatalf("empty events frame: %v %+v", err, f)
	}
}

// TestWriterReset: a pooled writer switched to a new destination drops
// the previous owner's unflushed output, and InstrumentTx(nil) stops it
// counting into the previous owner's registry.
func TestWriterReset(t *testing.T) {
	reg := metrics.NewRegistry()
	var first, second bytes.Buffer
	w := NewWriter(&first)
	w.InstrumentTx(reg)
	if err := w.WriteEvents(1, testEvents(1)); err != nil { // left unflushed
		t.Fatal(err)
	}
	frames := reg.Counter("bw_wire_frames_total", "")
	if frames.Value() != 1 {
		t.Fatalf("frames counted = %d, want 1", frames.Value())
	}
	w.Reset(&second)
	w.InstrumentTx(nil)
	if err := w.WriteFinish(); err != nil {
		t.Fatal(err)
	}
	if err := w.Sync(); err != nil {
		t.Fatal(err)
	}
	if first.Len() != 0 {
		t.Errorf("the first destination got %d bytes after Reset", first.Len())
	}
	if frames.Value() != 1 {
		t.Errorf("a detached writer still counts: frames = %d, want 1", frames.Value())
	}
	r := NewReader(&second)
	if f, err := r.ReadFrame(); err != nil || f.Type != FrameFinish {
		t.Fatalf("second destination: %v %+v, want just a finish frame", err, f)
	}
	if _, err := r.ReadFrame(); err != io.EOF {
		t.Fatalf("second destination holds more than the finish frame: %v", err)
	}
}

package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"blockwatch/internal/monitor"
)

// TestDecodeZeroLengthPayload: frames with an empty payload (finish) and
// an events frame carrying zero events both decode cleanly — the
// decode-into path must not trip over n == 0 or count == 0.
func TestDecodeZeroLengthPayload(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	if err := w.WriteFinish(); err != nil {
		t.Fatal(err)
	}
	if err := w.WriteEvents(3, nil); err != nil {
		t.Fatal(err)
	}
	if err := w.Sync(); err != nil {
		t.Fatal(err)
	}

	r := NewReader(bytes.NewReader(buf.Bytes()))
	var f Frame
	if err := r.ReadFrameInto(&f); err != nil || f.Type != FrameFinish {
		t.Fatalf("finish frame: %v %+v", err, f)
	}
	if err := r.ReadFrameInto(&f); err != nil || f.Type != FrameEvents {
		t.Fatalf("empty events frame: %v %+v", err, f)
	}
	if f.Slot != 3 || len(f.Events) != 0 {
		t.Errorf("empty events frame decoded to slot %d, %d events; want slot 3, 0 events",
			f.Slot, len(f.Events))
	}
	if err := r.ReadFrameInto(&f); err != io.EOF {
		t.Fatalf("trailing read: %v, want io.EOF", err)
	}
}

// uvarintLen returns the encoded size of v as an unsigned varint.
func uvarintLen(v uint64) int { return len(binary.AppendUvarint(nil, v)) }

// rejectFramePayloadLen returns the encoded payload size of a reject
// frame whose reason has n bytes (uvarint length prefix + the bytes).
func rejectFramePayloadLen(n int) int { return uvarintLen(uint64(n)) + n }

// TestDecodePayloadAtRetainCap pins the scratch-retention boundary: a
// payload of exactly PayloadRetainCap bytes is kept for the next frame,
// one byte more and the buffer is released so a single huge frame cannot
// pin memory for the rest of a session (or a pooled reader's lifetime).
func TestDecodePayloadAtRetainCap(t *testing.T) {
	// Reason length chosen so the reject payload (length prefix + bytes)
	// lands exactly on the cap.
	atCap := PayloadRetainCap - uvarintLen(uint64(PayloadRetainCap))
	if got := rejectFramePayloadLen(atCap); got != PayloadRetainCap {
		t.Fatalf("test construction: payload %d, want %d", got, PayloadRetainCap)
	}
	cases := []struct {
		name   string
		reason string
		retain bool
	}{
		{"at-cap", strings.Repeat("x", atCap), true},
		{"over-cap", strings.Repeat("x", atCap+1), false},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var buf bytes.Buffer
			w := NewWriter(&buf)
			if err := w.WriteReject(c.reason); err != nil {
				t.Fatal(err)
			}
			if err := w.Sync(); err != nil {
				t.Fatal(err)
			}
			r := NewReader(bytes.NewReader(buf.Bytes()))
			var f Frame
			if err := r.ReadFrameInto(&f); err != nil {
				t.Fatal(err)
			}
			if f.Type != FrameReject || f.Reject != c.reason {
				t.Fatalf("decoded %+v, want reject with %d-byte reason", f.Type, len(c.reason))
			}
			if retained := cap(r.payload) > 0; retained != c.retain {
				t.Errorf("payload scratch cap = %d after %d-byte payload; retain = %t, want %t",
					cap(r.payload), rejectFramePayloadLen(len(c.reason)), retained, c.retain)
			}
		})
	}
}

// TestDecodeOversizeFrame: a header claiming more than MaxPayload is
// rejected with ErrTooLarge before any payload byte is read — the
// decoder must never size a buffer from an unvalidated length field.
func TestDecodeOversizeFrame(t *testing.T) {
	var hdr [5]byte
	hdr[0] = FrameEvents
	binary.LittleEndian.PutUint32(hdr[1:], uint32(MaxPayload+1))
	r := NewReader(bytes.NewReader(hdr[:]))
	var f Frame
	if err := r.ReadFrameInto(&f); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("oversize frame: %v, want ErrTooLarge", err)
	}
	if cap(r.payload) != 0 {
		t.Errorf("oversize header allocated a %d-byte payload buffer", cap(r.payload))
	}
}

// TestEventsSizeMatchesEncoding pins EventsSize to the encoder: the
// coalescer's byte budgeting is only sound if the predicted size is the
// encoded size, for events with and without the optional thread field.
func TestEventsSizeMatchesEncoding(t *testing.T) {
	cases := []struct {
		name string
		slot int
		evs  []monitor.Event
	}{
		{"empty", 2, nil},
		{"mixed", 2, testEvents(2)},
		{"other-thread", 0, testEvents(5)},
		{"big-values", 7, []monitor.Event{
			{Kind: monitor.EvBranch, Thread: 7, BranchID: 1 << 30, Key1: ^uint64(0), Key2: 1 << 63, Sig: ^uint64(0), Taken: true},
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var buf bytes.Buffer
			w := NewWriter(&buf)
			if err := w.WriteEvents(c.slot, c.evs); err != nil {
				t.Fatal(err)
			}
			if err := w.Sync(); err != nil {
				t.Fatal(err)
			}
			// frame = 5-byte header + payload + 4-byte CRC; the payload
			// starts with the slot and count uvarints EventsSize excludes.
			payload := buf.Len() - 5 - 4
			prefix := uvarintLen(uint64(c.slot)) + uvarintLen(uint64(len(c.evs)))
			if got, want := EventsSize(c.slot, c.evs), payload-prefix; got != want {
				t.Errorf("EventsSize = %d, encoded payload is %d bytes after the %d-byte prefix",
					got, want, prefix)
			}
			if prefix > EventsFrameOverhead {
				t.Errorf("slot/count prefix %d exceeds EventsFrameOverhead %d", prefix, EventsFrameOverhead)
			}
		})
	}
}

// randomEvents returns n branch events for slot with random keys and
// signatures; about one in four carries a mislabeled thread.
func randomEvents(rng *rand.Rand, slot, n int) []monitor.Event {
	evs := make([]monitor.Event, n)
	for i := range evs {
		evs[i] = monitor.Event{
			Kind:     monitor.EvBranch,
			Thread:   int32(slot),
			BranchID: int32(rng.Uint32()),
			Key1:     rng.Uint64(),
			Key2:     rng.Uint64() >> uint(rng.Intn(64)),
			Sig:      rng.Uint64(),
			Taken:    rng.Intn(2) == 0,
		}
		if rng.Intn(4) == 0 {
			evs[i].Thread = int32(rng.Uint32())
		}
	}
	return evs
}

// encodeEventsPayload returns the payload of the FrameEvents WriteEvents
// encodes for slot and evs.
func encodeEventsPayload(t testing.TB, slot int, evs []monitor.Event) []byte {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	if err := w.WriteEvents(slot, evs); err != nil {
		t.Fatal(err)
	}
	if err := w.Sync(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()[5 : buf.Len()-4]
}

// TestEventsSizeProperty: over random batches, mislabeled-thread events
// included, EventsSize is exactly the encoded payload after the slot and
// count prefix.
func TestEventsSizeProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 500; i++ {
		slot := rng.Intn(64)
		evs := randomEvents(rng, slot, rng.Intn(100))
		payload := encodeEventsPayload(t, slot, evs)
		prefix := uvarintLen(uint64(slot)) + uvarintLen(uint64(len(evs)))
		if got, want := EventsSize(slot, evs), len(payload)-prefix; got != want {
			t.Fatalf("batch %d (slot %d, %d events): EventsSize = %d, encoded %d", i, slot, len(evs), got, want)
		}
	}
}

// TestEventsShortPayload: an events payload cut anywhere inside its
// records, or one whose count claims more records than fit, is refused
// with errShort, never a panic or a partial frame.
func TestEventsShortPayload(t *testing.T) {
	const slot = 3
	evs := randomEvents(rand.New(rand.NewSource(2)), slot, 6)
	evs[1].Thread, evs[4].Thread = slot+1, -1 // records with the thread field
	payload := encodeEventsPayload(t, slot, evs)
	prefix := uvarintLen(slot) + uvarintLen(uint64(len(evs)))
	var r Reader
	var f Frame
	if err := r.decodeInto(&f, FrameEvents, payload); err != nil || !slices.Equal(f.Events, evs) {
		t.Fatalf("whole payload: %v", err)
	}
	for n := prefix; n < len(payload); n++ {
		if err := r.decodeInto(&f, FrameEvents, payload[:n]); err != errShort {
			t.Fatalf("payload cut to %d of %d bytes: err %v, want errShort", n, len(payload), err)
		}
	}
	for _, count := range []uint64{uint64(len(evs)) + 1, 1 << 40} {
		over := binary.AppendUvarint(binary.AppendUvarint(nil, slot), count)
		over = append(over, payload[prefix:]...)
		if err := r.decodeInto(&f, FrameEvents, over); err != errShort {
			t.Fatalf("count %d over %d records: err %v, want errShort", count, len(evs), err)
		}
	}
}

// TestWireDecodeZeroAlloc is the CI alloc ceiling for the pooled decode
// path: once the payload scratch and event buffer are warm, decoding
// event frames with Reset + ReadFrameInto must not allocate at all.
func TestWireDecodeZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; alloc gate runs in the non-race jobs")
	}
	var buf bytes.Buffer
	w := NewWriter(&buf)
	for i := 0; i < 16; i++ {
		if err := w.WriteEvents(2, testEvents(2)); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Sync(); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()

	br := bytes.NewReader(data)
	rd := NewReader(br)
	var f Frame
	decodeAll := func() {
		br.Reset(data)
		rd.Reset(br)
		for {
			if err := rd.ReadFrameInto(&f); err != nil {
				if err != io.EOF {
					t.Fatal(err)
				}
				return
			}
		}
	}
	decodeAll() // warm the payload scratch and the event buffer
	if avg := testing.AllocsPerRun(100, decodeAll); avg != 0 {
		t.Errorf("steady-state decode allocates %.1f times per stream, want 0", avg)
	}
}

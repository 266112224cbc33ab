package wire

import (
	"bytes"
	"encoding/binary"
	"io"
	"reflect"
	"slices"
	"testing"

	"blockwatch/internal/monitor"
)

// FuzzWireDecode pins the codec's totality: arbitrary bytes — including
// mutations of well-formed streams — must decode to frames or errors,
// never panic, and every frame the decoder does accept must itself
// re-encode (the accepted subset of the wire language is closed under
// round-tripping). This is the property the remote client's fail-open
// path and bwtrace's corrupt-trace rejection both lean on.
//
// A second reader decodes the same bytes through ReadFrameInto in
// lockstep: the allocating compat wrapper and the scratch-reusing
// decode-into path must accept exactly the same inputs and produce
// identical frames — byte-for-byte the same wire language.
func FuzzWireDecode(f *testing.F) {
	f.Add([]byte{})
	f.Add(encodeStream(f))
	f.Add([]byte{FrameEvents, 0x05, 0x00, 0x00, 0x00, 1, 2, 3, 4, 5, 0, 0, 0, 0})
	f.Add([]byte{FrameHello, 0x00, 0x00, 0x00, 0x00, 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		r := NewReader(bytes.NewReader(data))
		r2 := NewReader(bytes.NewReader(data))
		var f2 Frame
		w := NewWriter(io.Discard)
		for {
			fr, err := r.ReadFrame()
			err2 := r2.ReadFrameInto(&f2)
			if (err == nil) != (err2 == nil) {
				t.Fatalf("decode paths disagree: ReadFrame err %v, ReadFrameInto err %v", err, err2)
			}
			if err != nil {
				if err.Error() != err2.Error() {
					t.Fatalf("decode paths disagree on the error: %v vs %v", err, err2)
				}
				return
			}
			if fr.Type != f2.Type || fr.Slot != f2.Slot || fr.Thread != f2.Thread ||
				!slices.Equal(fr.Events, f2.Events) ||
				!reflect.DeepEqual(fr.Hello, f2.Hello) ||
				!reflect.DeepEqual(fr.Result, f2.Result) ||
				fr.Reject != f2.Reject {
				t.Fatalf("decode paths disagree on the frame:\n ReadFrame:     %+v\n ReadFrameInto: %+v", fr, &f2)
			}
			switch fr.Type {
			case FrameHello:
				if err := w.WriteHello(fr.Hello); err != nil {
					t.Fatalf("re-encode hello: %v", err)
				}
			case FrameEvents:
				if err := w.WriteEvents(fr.Slot, fr.Events); err != nil {
					t.Fatalf("re-encode events: %v", err)
				}
			case FrameFlush:
				_ = w.WriteFlush(fr.Slot, fr.Thread)
			case FrameDone:
				_ = w.WriteDone(fr.Slot, fr.Thread)
			case FrameFinish:
				_ = w.WriteFinish()
			case FrameResult:
				if err := w.WriteResult(fr.Result); err != nil {
					t.Fatalf("re-encode result: %v", err)
				}
			case FrameReject:
				_ = w.WriteReject(fr.Reject)
			default:
				t.Fatalf("decoder accepted unknown frame type 0x%02x", fr.Type)
			}
		}
	})
}

// FuzzWireRoundTrip pins the events codec's exactness: arbitrary branch
// events, mislabeled threads included, encode and decode back to the same
// events, and EventsSize predicts the encoded size. data is cut into
// 33-byte chunks: a flags byte (bit 0 taken, bit 1 mislabeled), then the
// thread, branch ID, Key1, Key2 and Sig.
func FuzzWireRoundTrip(f *testing.F) {
	f.Add(uint16(0), []byte{})
	f.Add(uint16(2), bytes.Repeat([]byte{0xff}, 3*33))
	f.Add(uint16(7), bytes.Repeat([]byte{0x02, 0x80, 0x00}, 33))
	f.Fuzz(func(t *testing.T, slot uint16, data []byte) {
		var evs []monitor.Event
		for ; len(data) >= 33; data = data[33:] {
			ev := monitor.Event{
				Kind:     monitor.EvBranch,
				Taken:    data[0]&1 != 0,
				Thread:   int32(slot),
				BranchID: int32(binary.LittleEndian.Uint32(data[5:])),
				Key1:     binary.LittleEndian.Uint64(data[9:]),
				Key2:     binary.LittleEndian.Uint64(data[17:]),
				Sig:      binary.LittleEndian.Uint64(data[25:]),
			}
			if data[0]&2 != 0 {
				ev.Thread = int32(binary.LittleEndian.Uint32(data[1:]))
			}
			evs = append(evs, ev)
		}
		var buf bytes.Buffer
		w := NewWriter(&buf)
		if err := w.WriteEvents(int(slot), evs); err != nil {
			t.Fatal(err)
		}
		if err := w.Sync(); err != nil {
			t.Fatal(err)
		}
		prefix := uvarintLen(uint64(slot)) + uvarintLen(uint64(len(evs)))
		if got, want := EventsSize(int(slot), evs), buf.Len()-5-4-prefix; got != want {
			t.Fatalf("EventsSize = %d, encoded %d", got, want)
		}
		var fr Frame
		if err := NewReader(&buf).ReadFrameInto(&fr); err != nil {
			t.Fatalf("decode: %v", err)
		}
		if fr.Type != FrameEvents || fr.Slot != int(slot) || !slices.Equal(fr.Events, evs) {
			t.Fatalf("round trip changed the frame:\n got slot %d %+v\nwant slot %d %+v", fr.Slot, fr.Events, slot, evs)
		}
	})
}

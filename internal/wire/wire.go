package wire

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"slices"
	"sort"
	"time"

	"blockwatch/internal/core"
	"blockwatch/internal/ir"
	"blockwatch/internal/metrics"
	"blockwatch/internal/monitor"
)

// Magic opens every stream's Hello frame ("BWM1").
const Magic uint32 = 0x42574d31

// Version is the codec version emitted by this package. Decoders accept
// exactly this version; bumping it is a wire break. Version 2 replaced
// version 1's varint branch-event fields with fixed-width records.
const Version = 2

// Frame types.
const (
	// FrameHello opens a stream: magic, version, program name, thread
	// count, and the reduced check-plan table.
	FrameHello byte = 1 + iota
	// FrameEvents carries one thread's batch of branch events.
	FrameEvents
	// FrameFlush is a thread's barrier marker (monitor.EvFlush).
	FrameFlush
	// FrameDone is a thread's end-of-section marker (monitor.EvDone).
	FrameDone
	// FrameFinish marks that every thread's done marker has been sent;
	// a server answers it with a FrameResult.
	FrameFinish
	// FrameResult carries the checking outcome.
	FrameResult
	// FrameReject is a server's polite refusal of a new session (for
	// example, at the -maxconns limit). It carries a reason string and is
	// followed by the server closing the connection. A client treats it
	// as a retryable transport fault, never a crash.
	FrameReject
)

// MaxPayload bounds a frame's payload; larger length prefixes are
// rejected before any allocation (a corrupt length cannot OOM a reader).
const MaxPayload = 1 << 20

// PayloadRetainCap bounds the payload scratch a Reader keeps between
// frames: the buffer grows on demand up to this cap and is then reused
// for every following frame, so steady-state decoding allocates nothing;
// a rare oversize frame (up to MaxPayload) gets a transient buffer that
// is released after the frame, so one huge frame cannot pin a megabyte
// per pooled reader in a many-session daemon.
const PayloadRetainCap = 64 << 10

// Codec errors.
var (
	ErrCRC      = errors.New("wire: frame CRC mismatch")
	ErrTooLarge = errors.New("wire: frame payload exceeds MaxPayload")
	ErrBadMagic = errors.New("wire: bad hello magic")
	ErrVersion  = errors.New("wire: unsupported codec version")
	errShort    = errors.New("wire: truncated payload")
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Plan is the checker-facing reduction of a core.CheckPlan: exactly the
// fields monitor.CheckReports consumes. Static analysis stays on the
// program side of the wire; the checking side reconstructs a plan table
// from these.
type Plan struct {
	BranchID  int
	Kind      core.CheckKind
	Relation  ir.Op
	TidOnLeft bool
}

// Hello is the stream header.
type Hello struct {
	Version int
	Program string
	Threads int
	Plans   []Plan
}

// HelloFromPlans builds a stream header from an analysis plan table,
// keeping only checked branches (unchecked branches never produce
// events) in deterministic BranchID order.
func HelloFromPlans(program string, threads int, plans map[int]*core.CheckPlan) *Hello {
	h := &Hello{Version: Version, Program: program, Threads: threads}
	ids := make([]int, 0, len(plans))
	for id, p := range plans {
		if p != nil && p.Checked() {
			ids = append(ids, id)
		}
	}
	sort.Ints(ids)
	for _, id := range ids {
		p := plans[id]
		h.Plans = append(h.Plans, Plan{
			BranchID:  p.BranchID,
			Kind:      p.Kind,
			Relation:  p.Relation,
			TidOnLeft: p.TidOnLeft,
		})
	}
	return h
}

// PlanTable reconstructs the check-plan table the monitor needs on the
// checking side of the wire.
func (h *Hello) PlanTable() map[int]*core.CheckPlan {
	out := make(map[int]*core.CheckPlan, len(h.Plans))
	for _, p := range h.Plans {
		out[p.BranchID] = &core.CheckPlan{
			BranchID:  p.BranchID,
			Kind:      p.Kind,
			Relation:  p.Relation,
			TidOnLeft: p.TidOnLeft,
			Reason:    core.ReasonChecked,
		}
	}
	return out
}

// Result is the checking outcome carried by a FrameResult.
type Result struct {
	Health     monitor.HealthState
	Stats      monitor.Stats
	Violations []monitor.Violation
}

// Detected reports whether the result carries any violation.
func (r *Result) Detected() bool { return len(r.Violations) > 0 }

// Writer encodes frames onto an io.Writer through an internal buffer.
// Writers are not safe for concurrent use; the relay's single drain
// goroutine (or a trace writer) owns one.
type Writer struct {
	w   *bufio.Writer
	buf []byte
	// hdr and tail are per-frame header/CRC scratch, kept here for the
	// reason Reader keeps its own: a frame larger than the bufio buffer
	// passes them to the underlying writer's interface, so stack arrays
	// would escape.
	hdr  [5]byte
	tail [4]byte
	// Metric handles (nil when detached): frames/bytes encoded and
	// per-frame encode time. frame() is the single encode choke point.
	metFrames   *metrics.Counter
	metBytes    *metrics.Counter
	metEncodeNs *metrics.Histogram
}

// NewWriter wraps w.
func NewWriter(w io.Writer) *Writer {
	return &Writer{w: bufio.NewWriterSize(w, 1<<15)}
}

// Instrument attaches metric handles to the writer: frames and bytes
// count every encoded frame (header + payload + CRC), encodeNs times
// each frame write. Nil handles are allowed (and cost one branch each).
func (w *Writer) Instrument(frames, bytes *metrics.Counter, encodeNs *metrics.Histogram) {
	w.metFrames = frames
	w.metBytes = bytes
	w.metEncodeNs = encodeNs
}

// InstrumentTx attaches the codec's standard transmit metrics
// (bw_wire_frames_total, bw_wire_bytes_total, bw_wire_encode_ns) from
// r. A nil registry leaves the writer detached. The remote client and
// the trace recorder share these names — both encode the same stream.
func (w *Writer) InstrumentTx(r *metrics.Registry) {
	if r == nil {
		// Detach explicitly: a pooled writer must not keep counting into
		// a previous owner's registry.
		w.Instrument(nil, nil, nil)
		return
	}
	w.Instrument(
		r.Counter("bw_wire_frames_total", "frames encoded onto the wire or trace"),
		r.Counter("bw_wire_bytes_total", "bytes encoded onto the wire or trace"),
		r.Histogram("bw_wire_encode_ns", "per-frame encode+write time, ns",
			metrics.ExpBuckets(250, 4, 10)),
	)
}

// Reset discards any unflushed output and switches the writer to dst,
// keeping its buffers (and any attached metric handles). It is the
// pooling hook, as Reader.Reset is.
func (w *Writer) Reset(dst io.Writer) { w.w.Reset(dst) }

// Sync flushes buffered frames to the underlying writer.
func (w *Writer) Sync() error { return w.w.Flush() }

func (w *Writer) frame(typ byte) error {
	var t0 time.Time
	if w.metEncodeNs != nil {
		t0 = time.Now()
	}
	hdr, tail := w.hdr[:], w.tail[:]
	hdr[0] = typ
	binary.LittleEndian.PutUint32(hdr[1:], uint32(len(w.buf)))
	if _, err := w.w.Write(hdr); err != nil {
		return err
	}
	if _, err := w.w.Write(w.buf); err != nil {
		return err
	}
	crc := crc32.Update(0, castagnoli, hdr[:1])
	crc = crc32.Update(crc, castagnoli, w.buf)
	binary.LittleEndian.PutUint32(tail, crc)
	if _, err := w.w.Write(tail); err != nil {
		return err
	}
	w.metFrames.Inc()
	w.metBytes.Add(uint64(len(hdr) + len(w.buf) + len(tail)))
	if w.metEncodeNs != nil {
		w.metEncodeNs.Observe(time.Since(t0).Nanoseconds())
	}
	return nil
}

func (w *Writer) u64(v uint64) { w.buf = binary.AppendUvarint(w.buf, v) }
func (w *Writer) i64(v int64)  { w.buf = binary.AppendVarint(w.buf, v) }
func (w *Writer) byte(b byte)  { w.buf = append(w.buf, b) }
func (w *Writer) str(s string) { w.u64(uint64(len(s))); w.buf = append(w.buf, s...) }
func (w *Writer) u32fixed(v uint32) {
	w.buf = binary.LittleEndian.AppendUint32(w.buf, v)
}

// WriteHello encodes the stream header.
func (w *Writer) WriteHello(h *Hello) error {
	w.buf = w.buf[:0]
	w.u32fixed(Magic)
	w.u64(uint64(Version))
	w.str(h.Program)
	w.u64(uint64(h.Threads))
	w.u64(uint64(len(h.Plans)))
	for _, p := range h.Plans {
		w.i64(int64(p.BranchID))
		w.u64(uint64(p.Kind))
		w.u64(uint64(p.Relation))
		if p.TidOnLeft {
			w.byte(1)
		} else {
			w.byte(0)
		}
	}
	return w.frame(FrameHello)
}

// Event flag bits.
const (
	evTaken     = 1 << 0 // branch outcome
	evHasThread = 1 << 1 // payload thread differs from the frame's slot
)

// Branch events travel as fixed-width little-endian records:
//
//	flags(1) | [thread int32, only with evHasThread] | branchID int32 | Key1 u64 | Key2 u64 | Sig u64
//
// Keys and hashed signatures are uniformly random 64-bit values, which a
// varint would spend 9-10 bytes and as many loop steps on; a fixed field
// is both smaller and a single load or store.
const (
	eventRecord = 1 + 4 + 3*8 // bytes of a record without the thread field
	eventThread = 4           // extra bytes of a record with it
)

// WriteEvents encodes one thread's batch of branch events. slot is the
// producing thread's queue index; an event whose payload Thread field
// differs from slot (possible only under corruption) is encoded
// explicitly so the checking side sees exactly what an in-process
// monitor would have seen.
func (w *Writer) WriteEvents(slot int, evs []monitor.Event) error {
	w.buf = w.buf[:0]
	w.u64(uint64(slot))
	w.u64(uint64(len(evs)))
	off := len(w.buf)
	n := EventsSize(slot, evs)
	w.buf = slices.Grow(w.buf, n)[:off+n]
	b := w.buf[off:]
	for i := range evs {
		ev := &evs[i]
		var flags byte
		if ev.Taken {
			flags |= evTaken
		}
		b[0] = flags
		if int(ev.Thread) != slot {
			b[0] |= evHasThread
			binary.LittleEndian.PutUint32(b[1:], uint32(ev.Thread))
			b = b[eventThread:] // the record's fixed fields follow the thread
		}
		r := b[1:eventRecord]
		binary.LittleEndian.PutUint32(r, uint32(ev.BranchID))
		binary.LittleEndian.PutUint64(r[4:], ev.Key1)
		binary.LittleEndian.PutUint64(r[12:], ev.Key2)
		binary.LittleEndian.PutUint64(r[20:], ev.Sig)
		b = b[eventRecord:]
	}
	return w.frame(FrameEvents)
}

// EventsSize returns the payload bytes the events would occupy inside a
// FrameEvents for slot, excluding the frame's slot/count prefix. The
// remote client's frame coalescer uses it to stay under its byte budget
// (and under MaxPayload) without encoding speculatively.
func EventsSize(slot int, evs []monitor.Event) int {
	n := eventRecord * len(evs)
	for i := range evs {
		if int(evs[i].Thread) != slot {
			n += eventThread
		}
	}
	return n
}

// EventsFrameOverhead is the worst-case payload bytes a FrameEvents
// spends on its slot/count prefix; coalescers budget for it on top of
// EventsSize.
const EventsFrameOverhead = 2 * binary.MaxVarintLen64

// WriteFlush encodes thread slot's barrier marker; thread is the marker's
// payload thread ID (== slot unless corrupted upstream).
func (w *Writer) WriteFlush(slot int, thread int32) error {
	return w.control(FrameFlush, slot, thread)
}

// WriteDone encodes thread slot's end-of-section marker.
func (w *Writer) WriteDone(slot int, thread int32) error {
	return w.control(FrameDone, slot, thread)
}

func (w *Writer) control(typ byte, slot int, thread int32) error {
	w.buf = w.buf[:0]
	w.u64(uint64(slot))
	w.i64(int64(thread))
	return w.frame(typ)
}

// WriteFinish encodes the end-of-stream marker.
func (w *Writer) WriteFinish() error {
	w.buf = w.buf[:0]
	return w.frame(FrameFinish)
}

// WriteReject encodes a session refusal with a human-readable reason.
func (w *Writer) WriteReject(reason string) error {
	w.buf = w.buf[:0]
	w.str(reason)
	return w.frame(FrameReject)
}

// WriteResult encodes the checking outcome.
func (w *Writer) WriteResult(r *Result) error {
	w.buf = w.buf[:0]
	w.byte(byte(r.Health))
	w.u64(r.Stats.Events)
	w.u64(r.Stats.Instances)
	w.u64(r.Stats.Flushes)
	w.u64(r.Stats.Dropped)
	w.u64(r.Stats.Quarantined)
	w.u64(r.Stats.Watchdog)
	w.u64(r.Stats.Panics)
	w.u64(uint64(len(r.Violations)))
	for _, v := range r.Violations {
		w.i64(int64(v.BranchID))
		w.u64(v.Key1)
		w.u64(v.Key2)
		w.str(v.Reason)
	}
	return w.frame(FrameResult)
}

// Frame is one decoded frame. Only the fields matching Type are set.
// With ReadFrame the Events slice is owned by the Reader and valid until
// the next read; with ReadFrameInto it is the caller's scratch, reused
// (grown, never shrunk) across calls on the same Frame.
type Frame struct {
	Type   byte
	Slot   int             // FrameEvents, FrameFlush, FrameDone
	Thread int32           // FrameFlush, FrameDone payload thread
	Events []monitor.Event // FrameEvents
	Hello  *Hello          // FrameHello
	Result *Result         // FrameResult
	Reject string          // FrameReject reason
}

// Reader decodes frames from an io.Reader. Not safe for concurrent use.
type Reader struct {
	r       *bufio.Reader
	payload []byte
	events  []monitor.Event // ReadFrame's compat scratch
	// hdr and tail are per-frame header/CRC scratch. They live on the
	// Reader because io.ReadFull takes the buffer through an interface,
	// so stack arrays would escape — one heap allocation each per frame.
	hdr  [5]byte
	tail [4]byte
	// Metric handles (nil when detached): frames/bytes decoded, payload
	// scratch growths, and the scratch's high-water capacity.
	metFrames *metrics.Counter
	metBytes  *metrics.Counter
	metGrows  *metrics.Counter
	metBufCap *metrics.Gauge
}

// NewReader wraps r.
func NewReader(r io.Reader) *Reader {
	return &Reader{r: bufio.NewReaderSize(r, 1<<15)}
}

// Reset discards any buffered input and switches the reader to src,
// keeping the payload and event scratch (and any attached metric
// handles). It is the pooling hook: a daemon reuses one Reader — and its
// warmed buffers — across many connections.
func (r *Reader) Reset(src io.Reader) { r.r.Reset(src) }

// Instrument attaches metric handles to the reader: frames and bytes
// count every successfully decoded frame. Nil handles are allowed.
func (r *Reader) Instrument(frames, bytes *metrics.Counter) {
	r.metFrames = frames
	r.metBytes = bytes
}

// InstrumentRx attaches the codec's standard receive metrics
// (bw_wire_rx_frames_total, bw_wire_rx_bytes_total) plus the decode
// scratch-reuse gauges (bw_wire_decode_buf_grows_total,
// bw_wire_decode_buf_bytes) from reg. A nil registry leaves the reader
// detached.
func (r *Reader) InstrumentRx(reg *metrics.Registry) {
	if reg == nil {
		// Detach explicitly: a pooled reader must not keep counting into
		// a previous owner's registry.
		r.Instrument(nil, nil)
		r.metGrows, r.metBufCap = nil, nil
		return
	}
	r.Instrument(
		reg.Counter("bw_wire_rx_frames_total", "frames decoded from the wire or trace"),
		reg.Counter("bw_wire_rx_bytes_total", "bytes decoded from the wire or trace"),
	)
	r.metGrows = reg.Counter("bw_wire_decode_buf_grows_total",
		"payload-scratch (re)allocations across decoded frames — steady state is 0 per frame")
	r.metBufCap = reg.Gauge("bw_wire_decode_buf_bytes",
		"high-water retained payload-scratch capacity, bytes")
}

// ReadFrame reads and verifies one frame. It returns io.EOF at a clean
// frame boundary and io.ErrUnexpectedEOF inside a frame; any malformed
// content (bad CRC, bad length, truncated varints, unknown type) is an
// error, never a panic. The compatibility wrapper over ReadFrameInto: it
// allocates the returned Frame but still reuses the reader-owned event
// scratch, so the returned Events slice is valid only until the next
// read.
func (r *Reader) ReadFrame() (*Frame, error) {
	f := &Frame{Events: r.events}
	err := r.ReadFrameInto(f)
	r.events = f.Events[:0] // retain scratch growth even on error
	if err != nil {
		return nil, err
	}
	return f, nil
}

// ReadFrameInto reads and verifies one frame into f, with exactly
// ReadFrame's error semantics and acceptance (FuzzWireDecode pins the
// two byte-for-byte). Nothing is allocated at steady state: the payload
// is read into the reader's retained scratch (grow-only, capped at
// PayloadRetainCap; oversize frames use a transient buffer) and event
// frames decode into f.Events[:0], growing the caller's scratch only
// when a frame outsizes it. On error f's contents are unspecified.
func (r *Reader) ReadFrameInto(f *Frame) error {
	f.Type = 0
	f.Slot, f.Thread = 0, 0
	f.Events = f.Events[:0]
	f.Hello, f.Result = nil, nil
	f.Reject = ""
	hdr := r.hdr[:]
	if _, err := io.ReadFull(r.r, hdr[:1]); err != nil {
		return err // io.EOF here is a clean end of stream
	}
	if _, err := io.ReadFull(r.r, hdr[1:]); err != nil {
		return unexpectedEOF(err)
	}
	n := binary.LittleEndian.Uint32(hdr[1:])
	if n > MaxPayload {
		return ErrTooLarge
	}
	if cap(r.payload) < int(n) {
		r.payload = make([]byte, n)
		r.metGrows.Inc()
		if n <= PayloadRetainCap {
			r.metBufCap.SetMax(int64(cap(r.payload)))
		}
	}
	r.payload = r.payload[:n]
	if _, err := io.ReadFull(r.r, r.payload); err != nil {
		return unexpectedEOF(err)
	}
	tail := r.tail[:]
	if _, err := io.ReadFull(r.r, tail); err != nil {
		return unexpectedEOF(err)
	}
	crc := crc32.Update(0, castagnoli, hdr[:1])
	crc = crc32.Update(crc, castagnoli, r.payload)
	if crc != binary.LittleEndian.Uint32(tail) {
		return ErrCRC
	}
	err := r.decodeInto(f, hdr[0], r.payload)
	if err == nil {
		r.metFrames.Inc()
		r.metBytes.Add(uint64(len(hdr) + len(r.payload) + len(tail)))
	}
	if cap(r.payload) > PayloadRetainCap {
		r.payload = nil // oversize frame: release the transient buffer
	}
	return err
}

// FeedFrames reads frames into f and applies every Events, Flush and
// Done frame to chk, in stream order, on the calling goroutine: it is the
// whole ingest path of a daemon session and of a trace replay. It returns
// at the first frame of another type, left in f, with a nil error, or
// with the error of the read that failed (io.EOF at a clean end of
// stream). before, when non-nil, runs before each read; a daemon re-arms
// its idle deadline there. Nothing is allocated per frame once f's and
// the reader's scratch are warm.
func (r *Reader) FeedFrames(f *Frame, chk *monitor.Checker, before func()) error {
	for {
		if before != nil {
			before()
		}
		if err := r.ReadFrameInto(f); err != nil {
			return err
		}
		switch f.Type {
		case FrameEvents:
			chk.Feed(f.Slot, f.Events)
		case FrameFlush:
			chk.Flush(f.Slot, f.Thread)
		case FrameDone:
			chk.Done(f.Slot, f.Thread)
		default:
			return nil
		}
	}
}

func unexpectedEOF(err error) error {
	if err == io.EOF {
		return io.ErrUnexpectedEOF
	}
	return err
}

// decodeInto decodes one verified payload into f. Event frames append
// into f.Events (already reset by the caller); all other frame kinds
// allocate their natural once-per-session structures (Hello, Result).
func (r *Reader) decodeInto(f *Frame, typ byte, payload []byte) error {
	d := dec{b: payload}
	f.Type = typ
	switch typ {
	case FrameHello:
		h, err := decodeHello(&d)
		if err != nil {
			return err
		}
		f.Hello = h
	case FrameEvents:
		slot := d.u64()
		count := d.u64()
		if d.err != nil {
			return d.err
		}
		rest := payload[d.off:]
		// A count whose records cannot fit is refused before anything is
		// decoded, so a corrupt count cannot force a huge allocation.
		if count > uint64(len(rest)/eventRecord) {
			return errShort
		}
		f.Slot = int(slot)
		evs := slices.Grow(f.Events, int(count))[:count]
		for i := range evs {
			if len(rest) < eventRecord {
				return errShort
			}
			flags := rest[0]
			ev := monitor.Event{Kind: monitor.EvBranch, Thread: int32(slot), Taken: flags&evTaken != 0}
			if flags&evHasThread != 0 {
				if len(rest) < eventRecord+eventThread {
					return errShort
				}
				ev.Thread = int32(binary.LittleEndian.Uint32(rest[1:]))
				rest = rest[eventThread:]
			}
			r := rest[1:eventRecord]
			ev.BranchID = int32(binary.LittleEndian.Uint32(r))
			ev.Key1 = binary.LittleEndian.Uint64(r[4:])
			ev.Key2 = binary.LittleEndian.Uint64(r[12:])
			ev.Sig = binary.LittleEndian.Uint64(r[20:])
			evs[i] = ev
			rest = rest[eventRecord:]
		}
		f.Events = evs
	case FrameFlush, FrameDone:
		f.Slot = int(d.u64())
		f.Thread = int32(d.i64())
		if d.err != nil {
			return d.err
		}
	case FrameFinish:
		// no payload
	case FrameReject:
		f.Reject = d.str()
		if d.err != nil {
			return d.err
		}
	case FrameResult:
		res, err := decodeResult(&d)
		if err != nil {
			return err
		}
		f.Result = res
	default:
		return fmt.Errorf("wire: unknown frame type 0x%02x", typ)
	}
	return d.err
}

func decodeHello(d *dec) (*Hello, error) {
	if d.u32fixed() != Magic {
		if d.err != nil {
			return nil, d.err
		}
		return nil, ErrBadMagic
	}
	v := d.u64()
	if d.err == nil && v != Version {
		return nil, fmt.Errorf("%w: got %d, want %d", ErrVersion, v, Version)
	}
	h := &Hello{Version: int(v)}
	h.Program = d.str()
	h.Threads = int(d.u64())
	count := d.u64()
	if d.err != nil {
		return nil, d.err
	}
	if count > uint64(len(d.b)) {
		return nil, fmt.Errorf("wire: plan count %d exceeds payload", count)
	}
	for i := uint64(0); i < count; i++ {
		p := Plan{
			BranchID: int(d.i64()),
			Kind:     core.CheckKind(d.u64()),
			Relation: ir.Op(d.u64()),
		}
		p.TidOnLeft = d.byte() != 0
		if d.err != nil {
			return nil, d.err
		}
		h.Plans = append(h.Plans, p)
	}
	return h, nil
}

func decodeResult(d *dec) (*Result, error) {
	r := &Result{Health: monitor.HealthState(d.byte())}
	r.Stats.Events = d.u64()
	r.Stats.Instances = d.u64()
	r.Stats.Flushes = d.u64()
	r.Stats.Dropped = d.u64()
	r.Stats.Quarantined = d.u64()
	r.Stats.Watchdog = d.u64()
	r.Stats.Panics = d.u64()
	count := d.u64()
	if d.err != nil {
		return nil, d.err
	}
	if count > uint64(len(d.b)) {
		return nil, fmt.Errorf("wire: violation count %d exceeds payload", count)
	}
	for i := uint64(0); i < count; i++ {
		v := monitor.Violation{
			BranchID: int(d.i64()),
			Key1:     d.u64(),
			Key2:     d.u64(),
			Reason:   d.str(),
		}
		if d.err != nil {
			return nil, d.err
		}
		r.Violations = append(r.Violations, v)
	}
	return r, nil
}

// dec is a bounds-checked little decoder over one frame payload. The
// first failure sticks in err; subsequent reads return zero values, so
// parse loops stay total on corrupt input.
type dec struct {
	b   []byte
	off int
	err error
}

func (d *dec) fail() {
	if d.err == nil {
		d.err = errShort
	}
}

func (d *dec) u64() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.b[d.off:])
	if n <= 0 {
		d.fail()
		return 0
	}
	d.off += n
	return v
}

func (d *dec) i64() int64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Varint(d.b[d.off:])
	if n <= 0 {
		d.fail()
		return 0
	}
	d.off += n
	return v
}

func (d *dec) byte() byte {
	if d.err != nil {
		return 0
	}
	if d.off >= len(d.b) {
		d.fail()
		return 0
	}
	b := d.b[d.off]
	d.off++
	return b
}

func (d *dec) u32fixed() uint32 {
	if d.err != nil {
		return 0
	}
	if d.off+4 > len(d.b) {
		d.fail()
		return 0
	}
	v := binary.LittleEndian.Uint32(d.b[d.off:])
	d.off += 4
	return v
}

func (d *dec) str() string {
	n := d.u64()
	if d.err != nil {
		return ""
	}
	if n > uint64(len(d.b)-d.off) {
		d.fail()
		return ""
	}
	s := string(d.b[d.off : d.off+int(n)])
	d.off += int(n)
	return s
}

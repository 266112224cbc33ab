// Package trace records and replays monitor event streams using the
// same wire codec the out-of-process monitor speaks (internal/wire): a
// trace file is exactly one recorded session — hello frame, per-thread
// event/flush/done frames, finish, and the live run's result frame.
//
// The Recorder is a monitor.Sink that tees: every event is appended to
// the trace AND forwarded to an ordinary in-process monitor, so a
// recorded run keeps its protection. Recording failures (disk full,
// closed file) degrade health but never disturb the in-process checking
// — the same fail-open contract the monitor itself follows. Replay
// feeds a trace back through a fresh monitor.Checker on the calling
// goroutine, exactly as a daemon session checks a live stream; because
// the trace preserves per-thread event order and generation markers,
// replay violations are byte-identical to the live run's, which is what
// makes a captured trace a faithful bug report for a detection.
package trace

import (
	"errors"
	"fmt"
	"io"
	"time"

	"blockwatch/internal/core"
	"blockwatch/internal/metrics"
	"blockwatch/internal/monitor"
	"blockwatch/internal/wire"
)

// RecorderConfig configures a recording session.
type RecorderConfig struct {
	// Program names the monitored program (stored in the trace header).
	Program string
	// NumThreads is the SPMD thread count.
	NumThreads int
	// Plans is the check-plan table; its checker-facing reduction is
	// stored in the trace header (wire.Hello).
	Plans map[int]*core.CheckPlan
	// QueueCap and Overflow configure the producer front end
	// (monitor.Config semantics).
	QueueCap int
	Overflow monitor.OverflowPolicy
	// StallDeadline arms the inner monitor's stall watchdog.
	StallDeadline time.Duration
	// Metrics, when non-nil, receives the recorder's wire metrics
	// (bw_wire_*) and is threaded into the inner monitor (bw_monitor_*)
	// and the relay (bw_relay_*).
	Metrics *metrics.Registry
}

// Recorder is a monitor.Sink that writes the event stream to a trace
// while an inner in-process monitor keeps checking it live. Use exactly
// like a monitor.Monitor; the caller owns the underlying writer and
// closes it after Close.
type Recorder struct {
	*monitor.Relay
	wr      *wire.Writer
	inner   *monitor.Monitor
	senders []*monitor.Sender
	// fileBroken is only touched on the relay goroutine: once a trace
	// write fails, recording stops (health degrades) but forwarding to
	// the inner monitor continues.
	fileBroken bool
}

// NewRecorder builds a recording sink over w and writes the trace
// header. Header-write failures are synchronous construction errors; a
// trace that cannot even start is a configuration problem, not a mid-run
// failure.
func NewRecorder(w io.Writer, cfg RecorderConfig) (*Recorder, error) {
	inner, err := monitor.New(monitor.Config{
		NumThreads:    cfg.NumThreads,
		Plans:         cfg.Plans,
		QueueCap:      cfg.QueueCap,
		StallDeadline: cfg.StallDeadline,
		Metrics:       cfg.Metrics,
	})
	if err != nil {
		return nil, err
	}
	rec := &Recorder{wr: wire.NewWriter(w), inner: inner}
	rec.wr.InstrumentTx(cfg.Metrics)
	hello := wire.HelloFromPlans(cfg.Program, cfg.NumThreads, cfg.Plans)
	if err := rec.wr.WriteHello(hello); err != nil {
		return nil, fmt.Errorf("trace header: %w", err)
	}
	rec.senders = make([]*monitor.Sender, cfg.NumThreads)
	for tid := range rec.senders {
		rec.senders[tid] = inner.Sender(tid)
	}
	relay, err := monitor.NewRelay(monitor.RelayConfig{
		NumThreads: cfg.NumThreads,
		QueueCap:   cfg.QueueCap,
		Overflow:   cfg.Overflow,
		Stream:     (*recorderStream)(rec),
		Finish:     rec.finish,
		Metrics:    cfg.Metrics,
	})
	if err != nil {
		return nil, err
	}
	rec.Relay = relay
	return rec, nil
}

// Start launches the inner monitor and the relay.
func (rec *Recorder) Start() {
	rec.inner.Start()
	rec.Relay.Start()
}

// recorderStream tees the relayed stream: trace first (losing an event
// to a dead file must not depend on the forward), then the inner
// monitor's own Senders. It never returns an error — trace failures are
// absorbed so the relay keeps forwarding (checking outlives recording).
type recorderStream Recorder

func (s *recorderStream) StreamEvents(slot int, evs []monitor.Event) error {
	if !s.fileBroken {
		if err := s.wr.WriteEvents(slot, evs); err != nil {
			s.fileBroken = true
			s.Relay.Degrade()
		}
	}
	s.senders[slot].SendBatch(evs)
	return nil
}

func (s *recorderStream) StreamControl(slot int, ev monitor.Event) error {
	if !s.fileBroken {
		var err error
		if ev.Kind == monitor.EvFlush {
			err = s.wr.WriteFlush(slot, ev.Thread)
		} else {
			err = s.wr.WriteDone(slot, ev.Thread)
		}
		if err != nil {
			s.fileBroken = true
			s.Relay.Degrade()
		}
	}
	s.senders[slot].Send(ev)
	return nil
}

// finish closes the inner monitor and seals the trace with the finish
// marker and the live result frame, so replay and stat can verify the
// recorded verdict.
func (rec *Recorder) finish(bool) (monitor.RelayOutcome, error) {
	rec.inner.Close()
	outcome := monitor.RelayOutcome{
		Detected:   rec.inner.Detected(),
		Violations: rec.inner.Violations(),
		Stats:      rec.inner.Stats(),
		Health:     rec.inner.Health(),
	}
	if !rec.fileBroken {
		res := &wire.Result{
			Health:     outcome.Health,
			Stats:      outcome.Stats,
			Violations: outcome.Violations,
		}
		err := rec.wr.WriteFinish()
		if err == nil {
			err = rec.wr.WriteResult(res)
		}
		if err == nil {
			err = rec.wr.Sync()
		}
		if err != nil {
			rec.fileBroken = true
			rec.Relay.Degrade()
		}
	}
	return outcome, nil
}

// ReplayConfig configures a replay.
type ReplayConfig struct {
	// QueueCap bounds the events the replay buffers for one thread that
	// flushed past a barrier the others have not reached yet
	// (0 = monitor.DefaultQueueCap). A thread about to pass it
	// force-closes the generation, degrading the replay's health; a
	// bound at least as large as the recorded gap leaves the verdict
	// unchanged.
	QueueCap int
}

// Outcome is the result of replaying (or inspecting) a trace.
type Outcome struct {
	// Program and Threads come from the trace header.
	Program string
	Threads int
	// Clean reports whether the trace ends with the finish marker (false:
	// truncated mid-stream — the recording process died; the events up to
	// the truncation are still checked).
	Clean bool
	// Detected, Violations, Stats, Health are the replaying monitor's
	// verdict over the recorded stream.
	Detected   bool
	Violations []monitor.Violation
	Stats      monitor.Stats
	Health     monitor.HealthState
	// Recorded is the live run's result frame stored in the trace, if the
	// trace is sealed (nil otherwise). A faithful trace replays to the
	// same violations.
	Recorded *wire.Result
}

// ErrNotTrace reports a stream that does not start with a trace header.
var ErrNotTrace = errors.New("trace: stream does not start with a hello frame")

// ErrEmptyTrace reports a zero-length trace file. Distinguished from a
// corrupt one so the CLI can say what actually happened: the recording
// wrote nothing (it crashed before the header, or the wrong file was
// passed), not that the trace decoded badly.
var ErrEmptyTrace = errors.New("trace: file is empty — no trace header was ever written")

// readHeader reads and validates a stream's hello frame, turning the
// raw decode errors of a zero-length or header-truncated file into
// clean diagnostics.
func readHeader(rd *wire.Reader) (*wire.Hello, error) {
	var f wire.Frame
	err := rd.ReadFrameInto(&f)
	if err != nil {
		switch err {
		case io.EOF:
			return nil, ErrEmptyTrace
		case io.ErrUnexpectedEOF:
			return nil, errors.New("trace: file truncated inside the header frame (recording died while writing the header)")
		}
		if errors.Is(err, wire.ErrVersion) {
			return nil, fmt.Errorf("trace: recorded by an incompatible build (%w); record it again with this one", err)
		}
		return nil, fmt.Errorf("trace header: %w", err)
	}
	if f.Type != wire.FrameHello {
		return nil, ErrNotTrace
	}
	return f.Hello, nil
}

// Replay feeds a recorded trace through a fresh checker and returns its
// verdict. The trace's per-thread event order and generation markers
// reproduce the live monitor's input exactly, so a sealed trace replays
// to byte-identical violations.
func Replay(r io.Reader, cfg ReplayConfig) (*Outcome, error) {
	rd := wire.NewReader(r)
	hello, err := readHeader(rd)
	if err != nil {
		return nil, err
	}
	chk, err := monitor.NewChecker(monitor.Config{
		NumThreads: hello.Threads,
		Plans:      hello.PlanTable(),
		QueueCap:   cfg.QueueCap,
	})
	if err != nil {
		return nil, fmt.Errorf("trace replay monitor: %w", err)
	}
	defer chk.Finish()
	out := &Outcome{Program: hello.Program, Threads: hello.Threads}
	var f wire.Frame // reused across frames; the checker does not retain it
	for {
		err := rd.FeedFrames(&f, chk, nil)
		if err == io.EOF {
			break // truncated: check what we have
		}
		if err != nil {
			return nil, fmt.Errorf("trace corrupt: %w", err)
		}
		if f.Type == wire.FrameFinish {
			out.Clean = true
			continue
		}
		if f.Type != wire.FrameResult {
			return nil, fmt.Errorf("trace corrupt: unexpected frame type 0x%02x", f.Type)
		}
		out.Recorded = f.Result
		break // the result frame seals the trace
	}
	chk.Finish()
	out.Detected = chk.Detected()
	out.Violations = chk.Violations()
	out.Stats = chk.Stats()
	out.Health = chk.Health()
	return out, nil
}

// Info summarizes a trace without replaying it through a monitor.
type Info struct {
	Program string
	Threads int
	Plans   int
	// Frames counts every frame after the header; Events counts branch
	// events; EventsPerThread and FlushesPerThread break them down.
	Frames           int
	Events           uint64
	EventsPerThread  []uint64
	FlushesPerThread []uint64
	DoneThreads      int
	// Clean reports a sealed trace (finish marker present).
	Clean bool
	// Recorded is the stored live verdict, if sealed.
	Recorded *wire.Result
}

// Stat scans a trace and reports its shape and recorded verdict.
func Stat(r io.Reader) (*Info, error) {
	rd := wire.NewReader(r)
	hello, err := readHeader(rd)
	if err != nil {
		return nil, err
	}
	info := &Info{
		Program:          hello.Program,
		Threads:          hello.Threads,
		Plans:            len(hello.Plans),
		EventsPerThread:  make([]uint64, hello.Threads),
		FlushesPerThread: make([]uint64, hello.Threads),
	}
	slotOK := func(slot int) bool { return slot >= 0 && slot < hello.Threads }
	var f wire.Frame // reused across frames
	for {
		err := rd.ReadFrameInto(&f)
		if err != nil {
			if err == io.EOF {
				return info, nil
			}
			return nil, fmt.Errorf("trace corrupt after %d frames: %w", info.Frames, err)
		}
		info.Frames++
		switch f.Type {
		case wire.FrameEvents:
			info.Events += uint64(len(f.Events))
			if slotOK(f.Slot) {
				info.EventsPerThread[f.Slot] += uint64(len(f.Events))
			}
		case wire.FrameFlush:
			if slotOK(f.Slot) {
				info.FlushesPerThread[f.Slot]++
			}
		case wire.FrameDone:
			info.DoneThreads++
		case wire.FrameFinish:
			info.Clean = true
		case wire.FrameResult:
			info.Recorded = f.Result
			return info, nil
		}
	}
}

package harness

import (
	"fmt"
	"strings"
	"sync"
	"time"

	"blockwatch/internal/core"
	"blockwatch/internal/metrics"
	"blockwatch/internal/monitor"
	"blockwatch/internal/splash"
)

// Monitor-pipeline throughput experiment (not a paper artifact): drives
// the runtime monitor with a synthetic multi-producer, barrier-paced
// event stream — the same shape the interpreter produces — at two Sender
// batch sizes (1 = unbatched, and the default), and reports sustained
// events/second. This is the harness-level companion of the repo's
// BenchmarkMonitorThroughput; `bwbench -exp throughput` prints it as a
// text artifact.

// throughputProducers is the number of concurrent producer goroutines.
const throughputProducers = 4

// throughputEvents is the number of branch events each producer sends
// per grid cell.
const throughputEvents = 100_000

// throughputGen is the number of branch events a producer sends between
// barrier flushes (the generation length).
const throughputGen = 64

// ThroughputPoint is one cell of the throughput grid.
type ThroughputPoint struct {
	// Producers is the number of concurrent sending goroutines.
	Producers int
	// SenderBatch is the producer-side Sender batch size (1 = unbatched).
	SenderBatch int
	// Events is the total number of branch events sent.
	Events int
	// Elapsed is the wall-clock time from first send to monitor close.
	Elapsed time.Duration
	// Metrics is the cell's final pipeline-metrics snapshot (drain batch
	// size and generation-close latency distributions, queue high-water
	// mark) — observability data recorded alongside the throughput number.
	Metrics *metrics.Snapshot
}

// meanBatch returns the mean drain batch size observed by the cell's
// monitor (0 when no snapshot was recorded).
func (p ThroughputPoint) meanBatch() float64 {
	if p.Metrics == nil {
		return 0
	}
	h, ok := p.Metrics.Histogram("bw_monitor_batch_size")
	if !ok {
		return 0
	}
	return h.Mean()
}

// queueHWM returns the cell's queue-depth high-water mark.
func (p ThroughputPoint) queueHWM() int64 {
	if p.Metrics == nil {
		return 0
	}
	v, _ := p.Metrics.Gauge("bw_monitor_queue_depth_hwm")
	return v
}

// EventsPerSec returns the cell's sustained event throughput.
func (p ThroughputPoint) EventsPerSec() float64 {
	if p.Elapsed <= 0 {
		return 0
	}
	return float64(p.Events) / p.Elapsed.Seconds()
}

// Throughput measures monitor-pipeline throughput at Sender batch sizes 1
// (every event published on its own) and DefaultSenderBatch. Wall-clock
// numbers are machine-dependent observability data; the checking results
// themselves (zero violations on this consistent stream) are asserted.
func Throughput(cfg Config) ([]ThroughputPoint, error) {
	cfg = cfg.WithDefaults()
	plans, branchID, err := throughputPlans()
	if err != nil {
		return nil, err
	}
	var out []ThroughputPoint
	for _, batch := range []int{1, monitor.DefaultSenderBatch} {
		cfg.progress("throughput: batch=%d", batch)
		p, err := throughputCell(batch, plans, branchID)
		if err != nil {
			return nil, err
		}
		out = append(out, p)
	}
	return out, nil
}

// throughputPlans compiles the fft kernel and returns its plan table plus
// the ID of a shared-category checked branch, whose check passes for any
// identical (signature, outcome) stream.
func throughputPlans() (map[int]*core.CheckPlan, int, error) {
	prog, err := splash.Get("fft")
	if err != nil {
		return nil, 0, err
	}
	mod, err := prog.Compile()
	if err != nil {
		return nil, 0, err
	}
	a, err := core.Analyze(mod, core.Options{})
	if err != nil {
		return nil, 0, err
	}
	for _, id := range sortedKeys(a.Plans) {
		plan := a.Plans[id]
		if plan.Checked() && plan.Kind == core.CheckShared {
			return a.Plans, id, nil
		}
	}
	return nil, 0, fmt.Errorf("fft: no shared checked branch for the throughput driver")
}

// throughputCell runs one grid cell: producers push a barrier-paced
// stream of consistent branch events; the cell's elapsed time spans the
// first send through the final pending check.
func throughputCell(batch int, plans map[int]*core.CheckPlan, branchID int) (ThroughputPoint, error) {
	reg := metrics.NewRegistry()
	m, err := monitor.New(monitor.Config{
		NumThreads:  throughputProducers,
		Plans:       plans,
		SenderBatch: batch,
		Metrics:     reg,
	})
	if err != nil {
		return ThroughputPoint{}, err
	}
	m.Start()
	start := time.Now()
	var wg sync.WaitGroup
	for tid := 0; tid < throughputProducers; tid++ {
		wg.Add(1)
		go func(tid int32) {
			defer wg.Done()
			send := m.Sender(int(tid)).Send
			for i := 0; i < throughputEvents; i++ {
				send(monitor.Event{
					Kind:     monitor.EvBranch,
					Thread:   tid,
					BranchID: int32(branchID),
					Key1:     1,
					Key2:     uint64(i % throughputGen),
					Sig:      5,
					Taken:    i%3 == 0,
				})
				if i%throughputGen == throughputGen-1 {
					send(monitor.Event{Kind: monitor.EvFlush, Thread: tid})
				}
			}
			send(monitor.Event{Kind: monitor.EvDone, Thread: tid})
		}(int32(tid))
	}
	wg.Wait()
	m.Close()
	elapsed := time.Since(start)
	if m.Detected() {
		return ThroughputPoint{}, fmt.Errorf("throughput driver: unexpected violation %v", m.Violations())
	}
	if h := m.Health(); h != monitor.Healthy {
		return ThroughputPoint{}, fmt.Errorf("throughput driver: monitor health %s", h)
	}
	return ThroughputPoint{
		Producers:   throughputProducers,
		SenderBatch: batch,
		Events:      throughputProducers * throughputEvents,
		Elapsed:     elapsed,
		Metrics:     reg.Snapshot(),
	}, nil
}

// RenderThroughput formats the throughput grid as a text table.
func RenderThroughput(points []ThroughputPoint) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Monitor pipeline throughput (%d producers, %d events each, barrier every %d)\n",
		throughputProducers, throughputEvents, throughputGen)
	fmt.Fprintf(&b, "%-12s %14s %12s %12s %10s\n",
		"sender-batch", "events/sec", "elapsed", "drain-batch", "queue-hwm")
	for _, p := range points {
		fmt.Fprintf(&b, "%-12d %14.0f %12s %12.1f %10d\n",
			p.SenderBatch, p.EventsPerSec(), p.Elapsed.Round(time.Millisecond),
			p.meanBatch(), p.queueHWM())
	}
	return b.String()
}

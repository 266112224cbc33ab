package main

import (
	"fmt"
	"math"
	"runtime/metrics"
	"sort"
	"sync"
	"time"
)

// tailMin is the number of samples a reported percentile must have
// beyond it: a p90 needs at least 100 samples.
const tailMin = 10

// percentile returns the q-quantile (0 < q < 1) of xs by the
// nearest-rank rule, and whether at least tailMin samples lie strictly
// beyond it. xs is not modified.
func percentile(xs []float64, q float64) (float64, bool) {
	if len(xs) == 0 {
		return 0, false
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(q*float64(len(s)))) - 1
	if rank < 0 {
		rank = 0
	}
	return s[rank], len(s)-1-rank >= tailMin
}

// median returns the middle value of xs (the mean of the two middle
// values for an even count), 0 for none.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return sum(xs) / float64(len(xs))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// ratio is a quotient that always prints with its base, so a reader can
// tell 0.5 of 2 from 0.5 of 2 million.
type ratio struct {
	num, den float64
}

// value is num/den, or 0 when the base is empty.
func (r ratio) value() float64 {
	if r.den == 0 {
		return 0
	}
	return r.num / r.den
}

func (r ratio) String() string {
	return fmt.Sprintf("%.6g (= %.6g / %.6g)", r.value(), r.num, r.den)
}

// heapSampler tracks the Go heap in use (live and not yet swept
// objects) from a background goroutine. Because a single maximum over a
// run depends on where one GC cycle happens to land, it keeps the peak
// of each fixed window and reports the median of those peaks.
type heapSampler struct {
	window time.Duration
	read   func() uint64
	stop   chan struct{}
	done   chan struct{}

	mu    sync.Mutex
	peaks []uint64
	cur   uint64
	since time.Time
}

const heapMetric = "/memory/classes/heap/objects:bytes"

func readHeap() uint64 {
	s := []metrics.Sample{{Name: heapMetric}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindUint64 {
		return 0
	}
	return s[0].Value.Uint64()
}

// startHeapSampler samples every tick until stop; read is the heap
// reader (readHeap outside tests).
func startHeapSampler(tick, window time.Duration, read func() uint64) *heapSampler {
	h := &heapSampler{
		window: window,
		read:   read,
		stop:   make(chan struct{}),
		done:   make(chan struct{}),
		since:  time.Now(),
	}
	go func() {
		defer close(h.done)
		t := time.NewTicker(tick)
		defer t.Stop()
		for {
			h.sample(time.Now())
			select {
			case <-h.stop:
				return
			case <-t.C:
			}
		}
	}()
	return h
}

// sample folds one reading taken at now into the current window, closing
// the window once it has lasted h.window.
func (h *heapSampler) sample(now time.Time) {
	v := h.read()
	h.mu.Lock()
	defer h.mu.Unlock()
	if v > h.cur {
		h.cur = v
	}
	if now.Sub(h.since) >= h.window {
		h.peaks = append(h.peaks, h.cur)
		h.cur = 0
		h.since = now
	}
}

// finish stops the sampler, waits for its goroutine, and returns the
// median window peak in MiB and the number of windows. A run shorter
// than one window reports its single partial peak.
func (h *heapSampler) finish() (float64, int) {
	close(h.stop)
	<-h.done
	h.sample(time.Now())
	h.mu.Lock()
	defer h.mu.Unlock()
	peaks := make([]float64, 0, len(h.peaks)+1)
	for _, p := range h.peaks {
		peaks = append(peaks, float64(p)/(1<<20))
	}
	if len(peaks) == 0 {
		peaks = append(peaks, float64(h.cur)/(1<<20))
	}
	return median(peaks), len(peaks)
}

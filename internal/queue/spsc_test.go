package queue

import (
	"runtime"
	"testing"
	"testing/quick"
)

func TestFIFOOrder(t *testing.T) {
	q, err := NewSPSC[int](8)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		if !q.Push(i) {
			t.Fatalf("Push(%d) failed", i)
		}
	}
	if q.Push(99) {
		t.Fatal("Push on full queue succeeded")
	}
	for i := 0; i < 8; i++ {
		v, ok := q.Pop()
		if !ok || v != i {
			t.Fatalf("Pop = %d,%t, want %d,true", v, ok, i)
		}
	}
	if _, ok := q.Pop(); ok {
		t.Fatal("Pop on empty queue succeeded")
	}
}

func TestCapacityRounding(t *testing.T) {
	cases := map[int]int{1: 1, 2: 2, 3: 4, 5: 8, 8: 8, 9: 16, 1000: 1024}
	for in, want := range cases {
		q, err := NewSPSC[byte](in)
		if err != nil {
			t.Fatal(err)
		}
		if q.Cap() != want {
			t.Errorf("NewSPSC(%d).Cap() = %d, want %d", in, q.Cap(), want)
		}
	}
}

func TestBadCapacity(t *testing.T) {
	if _, err := NewSPSC[int](0); err == nil {
		t.Fatal("want error for capacity 0")
	}
	if _, err := NewSPSC[int](-3); err == nil {
		t.Fatal("want error for negative capacity")
	}
}

func TestWraparound(t *testing.T) {
	q, _ := NewSPSC[int](4)
	// Interleave pushes and pops so indices wrap many times.
	next := 0
	for round := 0; round < 100; round++ {
		for i := 0; i < 3; i++ {
			if !q.Push(round*3 + i) {
				t.Fatal("unexpected full")
			}
		}
		for i := 0; i < 3; i++ {
			v, ok := q.Pop()
			if !ok || v != next {
				t.Fatalf("round %d: Pop = %d,%t want %d", round, v, ok, next)
			}
			next++
		}
	}
	if !q.Empty() {
		t.Fatal("queue should be empty")
	}
}

// TestSPSCReset: a queue reset after its indices wrapped, with elements
// still buffered, releases them and is an empty FIFO again, full at
// exactly its capacity.
func TestSPSCReset(t *testing.T) {
	q, _ := NewSPSC[*int](4)
	for i := 0; i < 10; i++ { // wrap the indices past the ring twice
		v := i
		if !q.Push(&v) {
			t.Fatal("unexpected full")
		}
		if _, ok := q.Pop(); !ok {
			t.Fatal("unexpected empty")
		}
	}
	for i := 0; i < 3; i++ {
		v := i
		q.Push(&v)
	}
	q.Reset()
	if !q.Empty() || q.Len() != 0 {
		t.Fatalf("Len = %d after Reset, want 0", q.Len())
	}
	for i, p := range q.buf {
		if p != nil {
			t.Fatalf("slot %d still references an element after Reset", i)
		}
	}
	if _, ok := q.Pop(); ok {
		t.Fatal("Pop after Reset returned an element")
	}
	vals := []int{10, 11, 12, 13}
	for i := range vals {
		if !q.Push(&vals[i]) {
			t.Fatalf("Push %d after Reset failed", i)
		}
	}
	if q.Push(new(int)) {
		t.Fatal("Push past capacity after Reset succeeded")
	}
	dst := make([]*int, 8)
	if n := q.PopBatch(dst); n != 4 {
		t.Fatalf("PopBatch = %d after Reset, want 4", n)
	}
	for i := 0; i < 4; i++ {
		if *dst[i] != vals[i] {
			t.Fatalf("element %d = %d, want %d", i, *dst[i], vals[i])
		}
	}
}

func TestConcurrentProducerConsumer(t *testing.T) {
	q, _ := NewSPSC[uint64](64)
	const n = 20000
	done := make(chan uint64, 1)
	go func() {
		var sum uint64
		var prev uint64
		first := true
		for i := 0; i < n; {
			v, ok := q.Pop()
			if !ok {
				runtime.Gosched()
				continue
			}
			if !first && v != prev+1 {
				t.Errorf("out of order: %d after %d", v, prev)
				break
			}
			prev, first = v, false
			sum += v
			i++
		}
		done <- sum
	}()
	for i := uint64(1); i <= n; {
		if q.Push(i) {
			i++
		} else {
			runtime.Gosched()
		}
	}
	var want uint64
	for i := uint64(1); i <= n; i++ {
		want += i
	}
	if got := <-done; got != want {
		t.Fatalf("sum = %d, want %d", got, want)
	}
}

// TestPropertySequencePreserved: any pushed byte sequence pops back
// identically when the queue is drained between batches.
func TestPropertySequencePreserved(t *testing.T) {
	f := func(batches [][]byte) bool {
		q, _ := NewSPSC[byte](256)
		for _, batch := range batches {
			if len(batch) > 256 {
				batch = batch[:256]
			}
			for _, b := range batch {
				if !q.Push(b) {
					return false
				}
			}
			for _, b := range batch {
				v, ok := q.Pop()
				if !ok || v != b {
					return false
				}
			}
		}
		return q.Empty()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestLenTracksOccupancy(t *testing.T) {
	q, _ := NewSPSC[int](16)
	for i := 0; i < 10; i++ {
		q.Push(i)
	}
	if q.Len() != 10 {
		t.Errorf("Len = %d, want 10", q.Len())
	}
	for i := 0; i < 4; i++ {
		q.Pop()
	}
	if q.Len() != 6 {
		t.Errorf("Len = %d, want 6", q.Len())
	}
}

func TestPushBatchPopBatch(t *testing.T) {
	q, _ := NewSPSC[int](8)
	// Batch larger than the free space: short count, nothing lost.
	in := []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}
	if n := q.PushBatch(in); n != 8 {
		t.Fatalf("PushBatch = %d, want 8 (capacity)", n)
	}
	if n := q.PushBatch(in[8:]); n != 0 {
		t.Fatalf("PushBatch on full queue = %d, want 0", n)
	}
	dst := make([]int, 3)
	if n := q.PopBatch(dst); n != 3 || dst[0] != 0 || dst[2] != 2 {
		t.Fatalf("PopBatch = %d %v, want 3 [0 1 2]", n, dst)
	}
	// Freed space admits the remainder; wraparound exercised.
	if n := q.PushBatch(in[8:]); n != 2 {
		t.Fatalf("PushBatch after drain = %d, want 2", n)
	}
	want := []int{3, 4, 5, 6, 7, 8, 9}
	got := make([]int, 16)
	if n := q.PopBatch(got); n != len(want) {
		t.Fatalf("PopBatch = %d, want %d", n, len(want))
	}
	for i, w := range want {
		if got[i] != w {
			t.Fatalf("PopBatch[%d] = %d, want %d", i, got[i], w)
		}
	}
	if n := q.PopBatch(got); n != 0 || !q.Empty() {
		t.Fatalf("drained queue: PopBatch = %d, Empty = %t", n, q.Empty())
	}
}

func TestBatchEmptyArgs(t *testing.T) {
	q, _ := NewSPSC[int](4)
	if n := q.PushBatch(nil); n != 0 {
		t.Errorf("PushBatch(nil) = %d", n)
	}
	if n := q.PopBatch(nil); n != 0 {
		t.Errorf("PopBatch(nil) = %d", n)
	}
}

// TestScalarBatchMixed interleaves scalar and batch operations on both
// endpoints (drained between rounds) — the cached remote indices must stay
// coherent no matter which form refreshed them last.
func TestScalarBatchMixed(t *testing.T) {
	q, _ := NewSPSC[int](16)
	next, want := 0, 0
	scratch := make([]int, 5)
	for round := 0; round < 200; round++ {
		// Produce 4 values, alternating forms.
		if round%2 == 0 {
			for i := 0; i < 4; i++ {
				if !q.Push(next) {
					t.Fatal("unexpected full")
				}
				next++
			}
		} else {
			batch := []int{next, next + 1, next + 2, next + 3}
			if n := q.PushBatch(batch); n != 4 {
				t.Fatalf("PushBatch = %d, want 4", n)
			}
			next += 4
		}
		// Consume them, alternating the other way.
		if round%3 == 0 {
			for i := 0; i < 4; i++ {
				v, ok := q.Pop()
				if !ok || v != want {
					t.Fatalf("Pop = %d,%t want %d", v, ok, want)
				}
				want++
			}
		} else {
			rem := 4
			for rem > 0 {
				n := q.PopBatch(scratch[:rem])
				if n == 0 {
					t.Fatal("unexpected empty")
				}
				for i := 0; i < n; i++ {
					if scratch[i] != want {
						t.Fatalf("PopBatch got %d, want %d", scratch[i], want)
					}
					want++
				}
				rem -= n
			}
		}
	}
	if !q.Empty() {
		t.Fatal("queue should be empty")
	}
}

// TestPropertyBatchSequencePreserved mirrors TestPropertySequencePreserved
// through the batch endpoints.
func TestPropertyBatchSequencePreserved(t *testing.T) {
	f := func(batches [][]byte) bool {
		q, _ := NewSPSC[byte](256)
		out := make([]byte, 256)
		for _, batch := range batches {
			if len(batch) > 256 {
				batch = batch[:256]
			}
			if n := q.PushBatch(batch); n != len(batch) {
				return false
			}
			pos := 0
			for pos < len(batch) {
				n := q.PopBatch(out[:len(batch)-pos])
				if n == 0 {
					return false
				}
				for i := 0; i < n; i++ {
					if out[i] != batch[pos+i] {
						return false
					}
				}
				pos += n
			}
		}
		return q.Empty()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkPushPop(b *testing.B) {
	q, _ := NewSPSC[uint64](1024)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		q.Push(uint64(i))
		q.Pop()
	}
}

func BenchmarkPushPopBatch(b *testing.B) {
	q, _ := NewSPSC[uint64](1024)
	const batch = 64
	in := make([]uint64, batch)
	out := make([]uint64, batch)
	b.ReportAllocs()
	for i := 0; i < b.N; i += batch {
		q.PushBatch(in)
		q.PopBatch(out)
	}
}

func BenchmarkConcurrentThroughput(b *testing.B) {
	q, _ := NewSPSC[uint64](4096)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < b.N; {
			if _, ok := q.Pop(); ok {
				i++
			} else {
				runtime.Gosched() // single-core hosts: let the producer run
			}
		}
	}()
	for i := 0; i < b.N; {
		if q.Push(uint64(i)) {
			i++
		} else {
			runtime.Gosched()
		}
	}
	<-done
}

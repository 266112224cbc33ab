package queue

import (
	"errors"
	"sync/atomic"
)

// ErrBadCapacity is returned when a queue is created with capacity < 1.
var ErrBadCapacity = errors.New("queue capacity must be at least 1")

// SPSC is a bounded lock-free single-producer/single-consumer FIFO.
// Exactly one goroutine may call the producer methods (Push, PushBatch,
// Reserve, Commit) and exactly one the consumer methods (Pop, PopBatch,
// Peek, Release); each endpoint may freely mix its forms.
//
// Reserve/Commit and Peek/Release are the zero-copy forms: the producer
// writes elements straight into ring slots and publishes them with one
// tail store, and the consumer reads (and may modify) them in place
// before releasing them with one head store.
//
// PopBatch and Release do not clear the slots they consume: a consumed
// element stays in the ring, and keeps whatever it references reachable,
// until a later push overwrites it (Reset clears only the elements still
// buffered). The monitor's events hold no pointers, and skipping the
// store saves the consumer a write to every slot it consumes, on lines
// the producer writes next. Pop clears its slot; use it for elements
// with pointers.
type SPSC[T any] struct {
	buf        []T
	mask       uint64
	_          [64]byte      // keep the endpoints' state on separate cache lines
	head       atomic.Uint64 // consumer-owned
	cachedTail uint64        // consumer-private cache of tail
	_          [64]byte
	tail       atomic.Uint64 // producer-owned
	cachedHead uint64        // producer-private cache of head
	_          [64]byte
}

// NewSPSC returns a queue holding at least capacity elements (rounded up to
// a power of two).
func NewSPSC[T any](capacity int) (*SPSC[T], error) {
	if capacity < 1 {
		return nil, ErrBadCapacity
	}
	n := uint64(RoundCap(capacity))
	return &SPSC[T]{buf: make([]T, n), mask: n - 1}, nil
}

// RoundCap returns the capacity NewSPSC(capacity) allocates: capacity
// rounded up to a power of two (1 for capacity < 1).
func RoundCap(capacity int) int {
	n := 1
	for n < capacity {
		n <<= 1
	}
	return n
}

// Reset empties the queue, clearing the elements still buffered, so it
// can be handed to a new producer/consumer pair. It may only be called
// when neither endpoint is in use; the caller must also order it before
// the new endpoints' first operations (a channel hand-off does).
func (q *SPSC[T]) Reset() {
	var zero T
	for i, tail := q.head.Load(), q.tail.Load(); i != tail; i++ {
		q.buf[i&q.mask] = zero
	}
	q.head.Store(0)
	q.tail.Store(0)
	q.cachedHead, q.cachedTail = 0, 0
}

// Push appends v and reports whether there was room (Lamport's producer:
// read head, write slot, then publish by storing tail).
func (q *SPSC[T]) Push(v T) bool {
	tail := q.tail.Load()
	if tail-q.cachedHead > q.mask {
		q.cachedHead = q.head.Load()
		if tail-q.cachedHead > q.mask {
			return false // full
		}
	}
	q.buf[tail&q.mask] = v
	q.tail.Store(tail + 1)
	return true
}

// PushBatch appends as many elements of vs as fit and returns how many
// were enqueued, publishing them with a single tail store. A short count
// (including 0) means the queue filled up.
func (q *SPSC[T]) PushBatch(vs []T) int {
	if len(vs) == 0 {
		return 0
	}
	tail := q.tail.Load()
	free := q.mask + 1 - (tail - q.cachedHead)
	if free < uint64(len(vs)) {
		q.cachedHead = q.head.Load()
		free = q.mask + 1 - (tail - q.cachedHead)
	}
	n := uint64(len(vs))
	if n > free {
		n = free
	}
	for i := uint64(0); i < n; i++ {
		q.buf[(tail+i)&q.mask] = vs[i]
	}
	if n > 0 {
		q.tail.Store(tail + n)
	}
	return int(n)
}

// Reserve returns the producer's window: up to n free slots starting at
// the tail, contiguous in the ring (a window ends at the ring's wrap
// point, so it may be shorter than the free space). The producer fills
// the window in place; nothing in it is visible to the consumer until
// Commit. An empty window means the queue is full. Push, PushBatch and
// the next Reserve all start again at the tail, so the uncommitted rest
// of a window must not be written after any of them.
func (q *SPSC[T]) Reserve(n int) []T {
	tail := q.tail.Load()
	free := q.mask + 1 - (tail - q.cachedHead)
	if free < uint64(n) {
		q.cachedHead = q.head.Load()
		free = q.mask + 1 - (tail - q.cachedHead)
	}
	i := tail & q.mask
	k := min(uint64(n), free, q.mask+1-i)
	return q.buf[i : i+k : i+k]
}

// Commit publishes the first n elements of the current window with one
// tail store. n must not exceed the window Reserve returned.
func (q *SPSC[T]) Commit(n int) {
	if n > 0 {
		q.tail.Store(q.tail.Load() + uint64(n))
	}
}

// Peek returns up to n of the oldest elements in place, contiguous in the
// ring, without consuming them: the consumer may read and modify them
// until it releases them. An empty slice means the queue is empty.
func (q *SPSC[T]) Peek(n int) []T {
	head := q.head.Load()
	avail := q.cachedTail - head
	if avail < uint64(n) {
		q.cachedTail = q.tail.Load()
		avail = q.cachedTail - head
	}
	i := head & q.mask
	k := min(uint64(n), avail, q.mask+1-i)
	return q.buf[i : i+k : i+k]
}

// Release consumes the n oldest elements with one head store, handing
// their slots back to the producer. n must not exceed the length of the
// last Peek.
func (q *SPSC[T]) Release(n int) {
	if n > 0 {
		q.head.Store(q.head.Load() + uint64(n))
	}
}

// Pop removes and returns the oldest element (Lamport's consumer: read
// tail, read slot, then publish by storing head).
func (q *SPSC[T]) Pop() (T, bool) {
	var zero T
	head := q.head.Load()
	if head == q.cachedTail {
		q.cachedTail = q.tail.Load()
		if head == q.cachedTail {
			return zero, false // empty
		}
	}
	v := q.buf[head&q.mask]
	q.buf[head&q.mask] = zero // release references for GC
	q.head.Store(head + 1)
	return v, true
}

// PopBatch moves up to len(dst) oldest elements into dst and returns how
// many were dequeued, publishing the consumption with a single head store.
// A short count (including 0) means the queue ran dry.
func (q *SPSC[T]) PopBatch(dst []T) int {
	if len(dst) == 0 {
		return 0
	}
	head := q.head.Load()
	avail := q.cachedTail - head
	if avail < uint64(len(dst)) {
		q.cachedTail = q.tail.Load()
		avail = q.cachedTail - head
	}
	n := uint64(len(dst))
	if n > avail {
		n = avail
	}
	for i := uint64(0); i < n; i++ {
		dst[i] = q.buf[(head+i)&q.mask]
	}
	if n > 0 {
		q.head.Store(head + n)
	}
	return int(n)
}

// Len returns the number of buffered elements (racy but monotonic-safe for
// each endpoint's own use).
func (q *SPSC[T]) Len() int {
	return int(q.tail.Load() - q.head.Load())
}

// Cap returns the queue capacity.
func (q *SPSC[T]) Cap() int { return len(q.buf) }

// Empty reports whether the queue currently holds no elements.
func (q *SPSC[T]) Empty() bool { return q.Len() == 0 }

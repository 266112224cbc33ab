package queue

import (
	"errors"
	"sync/atomic"
)

// ErrBadCapacity is returned when a queue is created with capacity < 1.
var ErrBadCapacity = errors.New("queue capacity must be at least 1")

// SPSC is a bounded lock-free single-producer/single-consumer FIFO.
// Exactly one goroutine may call Push/PushBatch and exactly one may call
// Pop/PopBatch; each endpoint may freely mix its scalar and batch forms.
//
// PopBatch does not clear the slots it pops: a popped element stays in
// the ring, and keeps whatever it references reachable, until a later
// push overwrites it (Reset clears only the elements still buffered).
// The monitor's events hold no pointers, and skipping the store saves
// the consumer a write to every slot it pops, on lines the producer
// writes next. Pop clears its slot; use it for elements with pointers.
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

// Package queue implements the lock-free single-producer/single-consumer
// ring buffer used as the monitor's per-thread front-end queue, adapted —
// as in the paper (Section III-B) — from Lamport's wait-free construction:
// the producer only writes the tail index and the consumer only writes the
// head index, so no locks or read-modify-write operations are needed.
//
// On top of the scalar Push/Pop pair the queue offers PushBatch/PopBatch,
// which move a slice of elements under a single publish, and the
// zero-copy Reserve/Commit (producer) and Peek/Release (consumer) pairs,
// which hand out ring slots in place so an element is written once and
// read where it was written. Each endpoint
// additionally caches its last observed copy of the other endpoint's
// index (the producer caches the consumer's head, the consumer caches the
// producer's tail) and refreshes the cache only when the queue appears
// full or empty, so a batch of n elements costs one atomic load (own
// index), at most one refresh of the cached remote index, and one atomic
// store — instead of n load/store pairs.
package queue

package queue

import (
	"math/rand"
	"runtime"
	"sync"
	"testing"
)

// TestPropertyWindowMatchesBatchModel drives the zero-copy endpoints
// (Reserve/Commit, Peek/Release) with random operations and checks them
// step by step against a second queue of the same capacity driven
// through PushBatch/PopBatch: same contents, same order, same occupancy,
// and windows exactly as long as the free (or buffered) run up to the
// ring's wrap point. The capacity is small so windows wrap constantly.
func TestPropertyWindowMatchesBatchModel(t *testing.T) {
	for seed := int64(1); seed <= 50; seed++ {
		rng := rand.New(rand.NewSource(seed))
		const capacity = 8
		q, _ := NewSPSC[int](capacity)
		model, _ := NewSPSC[int](capacity)
		next := 0
		var head, tail uint64 // the test's own count of consumed and published elements
		for step := 0; step < 400; step++ {
			n := rng.Intn(capacity + 3)
			switch rng.Intn(5) {
			case 0, 1: // reserve, fill some, commit some of those
				win := q.Reserve(n)
				free := capacity - (tail - head)
				want := min(uint64(n), free, capacity-tail%capacity)
				if uint64(len(win)) != want {
					t.Fatalf("seed %d step %d: Reserve(%d) = %d slots, want %d (free %d, tail %d)",
						seed, step, n, len(win), want, free, tail)
				}
				if cap(win) != len(win) {
					t.Fatalf("seed %d: window cap %d exceeds its length %d", seed, cap(win), len(win))
				}
				filled := rng.Intn(len(win) + 1)
				vals := make([]int, filled)
				for i := range filled {
					win[i] = next
					vals[i] = next
					next++
				}
				committed := rng.Intn(filled + 1)
				q.Commit(committed)
				if got := model.PushBatch(vals[:committed]); got != committed {
					t.Fatalf("seed %d: model took %d of %d", seed, got, committed)
				}
				tail += uint64(committed)
				next -= filled - committed // uncommitted values are rewritten later
			case 2: // scalar push after a window: starts at the tail
				if q.Push(next) != model.Push(next) {
					t.Fatalf("seed %d step %d: Push disagrees with the model", seed, step)
				}
				if tail-head < capacity {
					tail++
					next++
				}
			default: // peek, release some
				got := q.Peek(n)
				want := min(uint64(n), tail-head, capacity-head%capacity)
				if uint64(len(got)) != want {
					t.Fatalf("seed %d step %d: Peek(%d) = %d elements, want %d (len %d, head %d)",
						seed, step, n, len(got), want, tail-head, head)
				}
				r := rng.Intn(len(got) + 1)
				dst := make([]int, r)
				if m := model.PopBatch(dst); m != r {
					t.Fatalf("seed %d: model popped %d of %d", seed, m, r)
				}
				for i := range r {
					if got[i] != dst[i] {
						t.Fatalf("seed %d step %d: Peek[%d] = %d, model %d", seed, step, i, got[i], dst[i])
					}
				}
				q.Release(r)
				head += uint64(r)
			}
			if q.Len() != model.Len() {
				t.Fatalf("seed %d step %d: Len %d, model %d", seed, step, q.Len(), model.Len())
			}
		}
	}
}

// TestSPSCWindowUnderRace runs one producer filling and committing
// windows of random sizes against one consumer peeking and releasing
// random prefixes, on a small ring so the wrap point and the full and
// empty edges come up constantly. Under -race it checks that the single
// tail store publishes the slots written in place and the single head
// store hands them back before the producer rewrites them; the FIFO
// check catches a window or a peek that starts anywhere but the
// tail or the head.
func TestSPSCWindowUnderRace(t *testing.T) {
	const msgs = 50_000
	q, err := NewSPSC[int](64)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		rng := rand.New(rand.NewSource(1))
		for i := 0; i < msgs; {
			win := q.Reserve(1 + rng.Intn(20))
			if len(win) == 0 {
				runtime.Gosched()
				continue
			}
			k := min(1+rng.Intn(len(win)), msgs-i)
			for j := range k {
				win[j] = i + j
			}
			q.Commit(k)
			i += k
		}
	}()
	go func() {
		defer wg.Done()
		rng := rand.New(rand.NewSource(2))
		for want := 0; want < msgs; {
			evs := q.Peek(1 + rng.Intn(30))
			if len(evs) == 0 {
				runtime.Gosched()
				continue
			}
			r := 1 + rng.Intn(len(evs))
			for _, v := range evs[:r] {
				if v != want {
					t.Errorf("FIFO violated: got %d, want %d", v, want)
					return
				}
				want++
			}
			q.Release(r)
		}
		if !q.Empty() {
			t.Error("queue not empty after consuming every message")
		}
	}()
	wg.Wait()
}

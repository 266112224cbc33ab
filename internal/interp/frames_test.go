package interp

import (
	"math/rand"
	"slices"
	"testing"
)

// foldKey2 is the reference Key2: the fold of hashCombine over the whole
// loop-iteration stack, as the branch path computed it per branch before the
// prefix hashes.
func foldKey2(stack []uint64) uint64 {
	key2 := uint64(0x517cc1b727220a95)
	for _, it := range stack {
		key2 = hashCombine(key2, it)
	}
	return key2
}

// TestKey2MatchesFold: over random LoopPush/LoopInc/LoopPop sequences the
// incrementally maintained Key2 equals the fold over the stack after every
// step, including after pops back to an empty stack.
func TestKey2MatchesFold(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for seq := 0; seq < 200; seq++ {
		th := &Thread{loopKeys: []uint64{loopKeyBase}}
		for step := 0; step < 400; step++ {
			switch op := rng.Intn(10); {
			case len(th.loopStack) == 0 || op < 2 && len(th.loopStack) < 12:
				th.loopPush()
			case op < 4:
				th.loopPop()
			default:
				for n := rng.Intn(3) + 1; n > 0; n-- {
					th.loopInc()
				}
			}
			if got, want := th.key2(), foldKey2(th.loopStack); got != want {
				t.Fatalf("sequence %d step %d: key2 = %#x, fold = %#x (stack %v)", seq, step, got, want, th.loopStack)
			}
		}
	}
}

// TestCallFramesReused: frames reused by depth keep every activation's
// registers and parameters its own — mutual recursion with several
// parameters, calls nested in argument lists, parameters read after a
// call of their own, and a callee at the depth of an earlier, deeper
// call.
func TestCallFramesReused(t *testing.T) {
	res := run(t, `
func int even(int n, int acc, int k) {
	if (n == 0) {
		return acc + k;
	}
	return odd(n - 1, acc + n * k, k + 1);
}
func int odd(int n, int acc, int k) {
	if (n == 0) {
		return acc - k;
	}
	return even(n - 1, acc - n, k * 2);
}
func int add(int a, int b) {
	int s;
	s = a + b;
	return s;
}
func int mix3(int a, int b, int c) {
	int x;
	x = add(c, b);
	return a * 100 + x * 10 + c;
}
func void slave() {
	output(even(9, 1, 1));
	output(add(add(1, 2), add(even(3, 0, 2), 4)));
	output(mix3(7, 5, 3));
	output(even(9, 1, 1));
}`, 1)
	want := []int64{refEven(9, 1, 1), 1 + 2 + refEven(3, 0, 2) + 4, 7*100 + (3+5)*10 + 3, refEven(9, 1, 1)}
	if got := ints(res); !slices.Equal(got, want) {
		t.Fatalf("output %v, want %v", got, want)
	}
}

func refEven(n, acc, k int64) int64 {
	if n == 0 {
		return acc + k
	}
	return refOdd(n-1, acc+n*k, k+1)
}

func refOdd(n, acc, k int64) int64 {
	if n == 0 {
		return acc - k
	}
	return refEven(n-1, acc-n, k*2)
}

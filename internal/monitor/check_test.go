package monitor

import (
	"strings"
	"testing"
	"testing/quick"

	"blockwatch/internal/core"
	"blockwatch/internal/ir"
)

func sharedPlan() *core.CheckPlan {
	return &core.CheckPlan{BranchID: 1, Kind: core.CheckShared, Reason: core.ReasonChecked}
}

func partialPlan() *core.CheckPlan {
	return &core.CheckPlan{BranchID: 2, Kind: core.CheckPartial, Reason: core.ReasonChecked}
}

func tidPlan(rel ir.Op, tidLeft bool) *core.CheckPlan {
	return &core.CheckPlan{
		BranchID: 3, Kind: core.CheckThreadID, Reason: core.ReasonChecked,
		Relation: rel, TidOnLeft: tidLeft,
	}
}

func TestCheckSharedAgreement(t *testing.T) {
	plan := sharedPlan()
	ok := []Report{{Thread: 0, Sig: 42, Taken: true}, {Thread: 1, Sig: 42, Taken: true}, {Thread: 2, Sig: 42, Taken: true}}
	if r := CheckReports(plan, ok); r != "" {
		t.Errorf("consistent shared reports flagged: %s", r)
	}
	badOutcome := []Report{{Thread: 0, Sig: 42, Taken: true}, {Thread: 1, Sig: 42, Taken: false}}
	if r := CheckReports(plan, badOutcome); r == "" {
		t.Error("diverging shared outcome not flagged")
	}
	badSig := []Report{{Thread: 0, Sig: 42, Taken: true}, {Thread: 1, Sig: 43, Taken: true}}
	if r := CheckReports(plan, badSig); r == "" {
		t.Error("diverging shared condition data not flagged")
	}
}

func TestCheckSingleReportNeverFlags(t *testing.T) {
	for _, plan := range []*core.CheckPlan{sharedPlan(), partialPlan(), tidPlan(ir.OpEq, true)} {
		if r := CheckReports(plan, []Report{{Thread: 0, Sig: 1, Taken: true}}); r != "" {
			t.Errorf("single report flagged under %s: %s", plan.Kind, r)
		}
		if r := CheckReports(plan, nil); r != "" {
			t.Errorf("empty reports flagged under %s: %s", plan.Kind, r)
		}
	}
}

func TestCheckDuplicateThread(t *testing.T) {
	plan := sharedPlan()
	dup := []Report{{Thread: 0, Sig: 42, Taken: true}, {Thread: 0, Sig: 42, Taken: true}}
	if r := CheckReports(plan, dup); !strings.Contains(r, "twice") {
		t.Errorf("duplicate thread report not flagged: %q", r)
	}
}

func TestCheckThreadIDEq(t *testing.T) {
	plan := tidPlan(ir.OpEq, true)
	// tid == 0: exactly thread 0 takes.
	ok := []Report{{Thread: 0, Sig: 0, Taken: true}, {Thread: 1, Sig: 0, Taken: false}, {Thread: 2, Sig: 0, Taken: false}, {Thread: 3, Sig: 0, Taken: false}}
	if r := CheckReports(plan, ok); r != "" {
		t.Errorf("legal tid== pattern flagged: %s", r)
	}
	// Shared value out of tid range: nobody takes.
	zero := []Report{{Thread: 0, Sig: 7, Taken: false}, {Thread: 1, Sig: 7, Taken: false}}
	if r := CheckReports(plan, zero); r != "" {
		t.Errorf("zero-taker tid==7 pattern flagged: %s", r)
	}
	// An extra taker: violation.
	bad := []Report{{Thread: 0, Sig: 0, Taken: true}, {Thread: 1, Sig: 0, Taken: false}, {Thread: 2, Sig: 0, Taken: true}}
	if r := CheckReports(plan, bad); r == "" {
		t.Error("extra taker on tid== branch not flagged")
	}
	// The rightful taker skipped: violation (exact relation check).
	missing := []Report{{Thread: 0, Sig: 0, Taken: false}, {Thread: 1, Sig: 0, Taken: false}, {Thread: 2, Sig: 0, Taken: false}}
	if r := CheckReports(plan, missing); r == "" {
		t.Error("missing taker on tid== branch not flagged")
	}
	// Shared operand corrupted in one thread.
	sig := []Report{{Thread: 0, Sig: 0, Taken: true}, {Thread: 1, Sig: 8, Taken: false}}
	if r := CheckReports(plan, sig); r == "" {
		t.Error("corrupted shared operand not flagged")
	}
}

func TestCheckThreadIDNe(t *testing.T) {
	plan := tidPlan(ir.OpNe, true)
	ok := []Report{{Thread: 0, Sig: 0, Taken: false}, {Thread: 1, Sig: 0, Taken: true}, {Thread: 2, Sig: 0, Taken: true}}
	if r := CheckReports(plan, ok); r != "" {
		t.Errorf("legal tid!= pattern flagged: %s", r)
	}
	bad := []Report{{Thread: 0, Sig: 0, Taken: false}, {Thread: 1, Sig: 0, Taken: false}, {Thread: 2, Sig: 0, Taken: true}}
	if r := CheckReports(plan, bad); r == "" {
		t.Error("wrong fall-through on tid!= branch not flagged")
	}
}

func TestCheckThreadIDOrdered(t *testing.T) {
	lt := tidPlan(ir.OpLt, true) // tid < shared
	ok := []Report{{Thread: 0, Sig: 2, Taken: true}, {Thread: 1, Sig: 2, Taken: true}, {Thread: 2, Sig: 2, Taken: false}, {Thread: 3, Sig: 2, Taken: false}}
	if r := CheckReports(lt, ok); r != "" {
		t.Errorf("legal tid<2 pattern flagged: %s", r)
	}
	bad := []Report{{Thread: 0, Sig: 2, Taken: true}, {Thread: 1, Sig: 2, Taken: false}, {Thread: 2, Sig: 2, Taken: false}}
	if r := CheckReports(lt, bad); r == "" {
		t.Error("thread 1 skipping tid<2 branch not flagged")
	}
	extra := []Report{{Thread: 0, Sig: 2, Taken: true}, {Thread: 1, Sig: 2, Taken: true}, {Thread: 2, Sig: 2, Taken: true}}
	if r := CheckReports(lt, extra); r == "" {
		t.Error("thread 2 taking tid<2 branch not flagged")
	}

	// shared < tid mirrors to tid > shared.
	mirror := tidPlan(ir.OpLt, false)
	okM := []Report{{Thread: 0, Sig: 1, Taken: false}, {Thread: 1, Sig: 1, Taken: false}, {Thread: 2, Sig: 1, Taken: true}}
	if r := CheckReports(mirror, okM); r != "" {
		t.Errorf("legal 1<tid pattern flagged: %s", r)
	}
	badM := []Report{{Thread: 0, Sig: 1, Taken: true}, {Thread: 1, Sig: 1, Taken: false}, {Thread: 2, Sig: 1, Taken: true}}
	if r := CheckReports(mirror, badM); r == "" {
		t.Error("thread 0 taking 1<tid branch not flagged")
	}
}

func TestCheckThreadIDDerivedNoRelation(t *testing.T) {
	// Derived tid values carry no outcome relation: any outcome pattern is
	// legal, but the shared-side signature must still agree.
	plan := tidPlan(0, true)
	anyPattern := []Report{{Thread: 0, Sig: 7, Taken: true}, {Thread: 1, Sig: 7, Taken: false}, {Thread: 2, Sig: 7, Taken: true}}
	if r := CheckReports(plan, anyPattern); r != "" {
		t.Errorf("derived-tid outcomes flagged without relation: %s", r)
	}
	badSig := []Report{{Thread: 0, Sig: 7, Taken: true}, {Thread: 1, Sig: 9, Taken: true}}
	if r := CheckReports(plan, badSig); r == "" {
		t.Error("derived-tid shared-side corruption not flagged")
	}
}

func TestCheckPartialGroups(t *testing.T) {
	plan := partialPlan()
	ok := []Report{{Thread: 0, Sig: 1, Taken: true}, {Thread: 1, Sig: 2, Taken: false}, {Thread: 2, Sig: 1, Taken: true}, {Thread: 3, Sig: 2, Taken: false}}
	if r := CheckReports(plan, ok); r != "" {
		t.Errorf("consistent partial groups flagged: %s", r)
	}
	bad := []Report{{Thread: 0, Sig: 1, Taken: true}, {Thread: 1, Sig: 2, Taken: false}, {Thread: 2, Sig: 1, Taken: false}}
	if r := CheckReports(plan, bad); r == "" {
		t.Error("diverging outcomes within a partial group not flagged")
	}
	// All-singleton groups can never be flagged.
	singles := []Report{{Thread: 0, Sig: 1, Taken: true}, {Thread: 1, Sig: 2, Taken: false}, {Thread: 2, Sig: 3, Taken: true}}
	if r := CheckReports(plan, singles); r != "" {
		t.Errorf("singleton partial groups flagged: %s", r)
	}
}

// Property: uniform fault-free report sets never produce violations under
// any plan kind — the zero-false-positive cornerstone.
func TestPropertyUniformReportsNeverFlagged(t *testing.T) {
	f := func(sig uint64, taken bool, n uint8) bool {
		threads := int(n%16) + 2
		reports := make([]Report, threads)
		for i := range reports {
			reports[i] = Report{Thread: int32(i), Sig: sig, Taken: taken}
		}
		if CheckReports(sharedPlan(), reports) != "" {
			return false
		}
		if CheckReports(partialPlan(), reports) != "" {
			return false
		}
		// For threadID-eq, a uniform all-not-taken pattern is legal exactly
		// when the shared value names no thread; force it out of range.
		if !taken {
			outOfRange := make([]Report, threads)
			for i := range outOfRange {
				outOfRange[i] = Report{Thread: int32(i), Sig: sig | 1<<40, Taken: false}
			}
			if CheckReports(tidPlan(ir.OpEq, true), outOfRange) != "" {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: a single flipped outcome among otherwise-identical shared
// reports is always detected.
func TestPropertySharedFlipAlwaysDetected(t *testing.T) {
	f := func(sig uint64, base bool, n, victim uint8) bool {
		threads := int(n%16) + 2
		v := int(victim) % threads
		reports := make([]Report, threads)
		for i := range reports {
			reports[i] = Report{Thread: int32(i), Sig: sig, Taken: base}
		}
		reports[v].Taken = !base
		return CheckReports(sharedPlan(), reports) != ""
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

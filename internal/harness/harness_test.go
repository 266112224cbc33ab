package harness

import (
	"math"
	"strings"
	"testing"

	"blockwatch/internal/inject"
)

// fastCfg keeps harness tests quick; bwbench runs paper-scale campaigns.
func fastCfg() Config {
	return Config{
		Faults:            30,
		FalsePositiveRuns: 3,
		CoverageThreads:   []int{4},
		PerfThreads:       []int{1, 2, 4},
		Seed:              7,
	}
}

func TestGeomean(t *testing.T) {
	if g := Geomean([]float64{2, 8}); math.Abs(g-4) > 1e-12 {
		t.Errorf("Geomean(2,8) = %v, want 4", g)
	}
	if g := Geomean(nil); g != 1 {
		t.Errorf("Geomean(nil) = %v, want 1", g)
	}
	if g := Geomean([]float64{1, -2}); g != 0 {
		t.Errorf("Geomean with nonpositive = %v, want 0", g)
	}
}

func TestTable4(t *testing.T) {
	rows, err := Table4(fastCfg())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 7 {
		t.Fatalf("got %d rows, want 7", len(rows))
	}
	for _, r := range rows {
		if r.ParallelBranches <= 0 || r.ParallelBranches > r.TotalBranches {
			t.Errorf("%s: parallel branches %d outside (0, %d]", r.Name, r.ParallelBranches, r.TotalBranches)
		}
		if r.ParallelLOC <= 0 || r.ParallelLOC > r.LOC {
			t.Errorf("%s: parallel LOC %d outside (0, %d]", r.Name, r.ParallelLOC, r.LOC)
		}
	}
	out := RenderTable4(rows)
	if !strings.Contains(out, "raytrace") || !strings.Contains(out, "Table IV") {
		t.Error("render missing expected content")
	}
}

func TestTable5(t *testing.T) {
	rows, err := Table5(fastCfg())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 7 {
		t.Fatalf("got %d rows, want 7", len(rows))
	}
	for _, r := range rows {
		if r.Shared+r.ThreadID+r.Partial+r.None != r.Total {
			t.Errorf("%s: categories don't sum to total", r.Name)
		}
		// Paper headline: 49%–98% similar in every program.
		if r.Similar < 0.40 || r.Similar > 1.0 {
			t.Errorf("%s: similar fraction %.2f outside plausible band", r.Name, r.Similar)
		}
	}
	out := RenderTable5(rows)
	if !strings.Contains(out, "threadID") {
		t.Error("render missing category header")
	}
}

func TestTable3Render(t *testing.T) {
	out, err := Table3()
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"foo.arg", "shared", "converged"} {
		if !strings.Contains(out, want) {
			t.Errorf("Table III output missing %q:\n%s", want, out)
		}
	}
}

func TestTable2AndTable1Render(t *testing.T) {
	t2 := RenderTable2()
	if !strings.Contains(t2, "threadID") || !strings.Contains(t2, "none") {
		t.Error("Table II render incomplete")
	}
	if !strings.Contains(Table1(), "shared") {
		t.Error("Table I render incomplete")
	}
}

func TestFig6ShapeMatchesPaper(t *testing.T) {
	res, err := Fig6(fastCfg())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 7 {
		t.Fatalf("got %d rows, want 7", len(res.Rows))
	}
	// The paper's headline shape: overhead at 32 threads well below 4
	// threads, and both above 1.0.
	if res.Geomean32 >= res.Geomean4 {
		t.Errorf("32-thread geomean %.2f not below 4-thread %.2f", res.Geomean32, res.Geomean4)
	}
	if res.Geomean4 <= 1.0 || res.Geomean32 <= 1.0 {
		t.Error("overheads must exceed 1.0")
	}
	if out := RenderFig6(res); !strings.Contains(out, "GEOMEAN") {
		t.Error("render missing geomean")
	}
}

func TestFig7ShapeMatchesPaper(t *testing.T) {
	cfg := fastCfg()
	cfg.PerfThreads = []int{1, 2, 8, 32}
	points, err := Fig7(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 4 {
		t.Fatalf("got %d points", len(points))
	}
	// Paper Figure 7: overhead rises from 1 to 2 threads (NUMA), then
	// falls monotonically toward 32.
	if points[1].Geomean <= points[0].Geomean {
		t.Errorf("no 1→2 thread bump: %.2f -> %.2f", points[0].Geomean, points[1].Geomean)
	}
	if points[2].Geomean >= points[1].Geomean {
		t.Errorf("overhead not falling 2→8 threads: %.2f -> %.2f", points[1].Geomean, points[2].Geomean)
	}
	if points[3].Geomean >= points[2].Geomean {
		t.Errorf("overhead not falling 8→32 threads: %.2f -> %.2f", points[2].Geomean, points[3].Geomean)
	}
	if out := RenderFig7(points); !strings.Contains(out, "threads") {
		t.Error("render incomplete")
	}
}

func TestCoverageBranchFlip(t *testing.T) {
	res, err := Coverage(fastCfg(), inject.BranchFlip)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 7 {
		t.Fatalf("got %d rows", len(res.Rows))
	}
	// Average protected coverage must beat average unprotected coverage.
	if res.AvgBW[0] <= res.AvgOriginal[0] {
		t.Errorf("BLOCKWATCH average coverage %.2f not above baseline %.2f",
			res.AvgBW[0], res.AvgOriginal[0])
	}
	if out := RenderCoverage(res, "Figure 8"); !strings.Contains(out, "Figure 8") {
		t.Error("render incomplete")
	}
}

func TestFalsePositivesZero(t *testing.T) {
	res, err := FalsePositives(fastCfg())
	if err != nil {
		t.Fatal(err)
	}
	if res.Violations != 0 {
		t.Fatalf("FALSE POSITIVES: %+v", res.PerProgram)
	}
	if res.Runs != 21 {
		t.Errorf("runs = %d, want 21 (3 per program)", res.Runs)
	}
	if out := RenderFalsePositives(res); !strings.Contains(out, "zero false positives") {
		t.Error("render incomplete")
	}
}

func TestDuplicationComparison(t *testing.T) {
	cfg := fastCfg()
	cfg.Faults = 20
	res, err := Duplication(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range res.Rows {
		// Duplication consumes ≥ the baseline resources (its span is at
		// least the slower replica with enforcement costs).
		if row.DuplOverhead < 1.0 {
			t.Errorf("%s: duplication overhead %.2f below 1.0", row.Name, row.DuplOverhead)
		}
	}
	if out := RenderDuplication(res); !strings.Contains(out, "dup-overhead") {
		t.Error("render incomplete")
	}
}

func TestAblation(t *testing.T) {
	cfg := fastCfg()
	cfg.Faults = 20
	rows, err := Ablation(cfg)
	if err != nil {
		t.Fatal(err)
	}
	anyPromotionEffect := false
	for _, r := range rows {
		if r.CheckedNoPromo > r.CheckedBase {
			t.Errorf("%s: disabling promotion increased checked branches", r.Name)
		}
		if r.CheckedNoPromo < r.CheckedBase {
			anyPromotionEffect = true
		}
		if r.OverheadDedup > r.OverheadBase+1e-9 {
			t.Errorf("%s: dedup increased overhead %.3f > %.3f", r.Name, r.OverheadDedup, r.OverheadBase)
		}
	}
	if !anyPromotionEffect {
		t.Error("promotion ablation shows no effect on any benchmark")
	}
	if out := RenderAblation(rows); !strings.Contains(out, "no-promo") {
		t.Error("render incomplete")
	}
}

func TestNestSweep(t *testing.T) {
	cfg := fastCfg()
	cfg.Faults = 25
	points, err := NestSweep(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 4 {
		t.Fatalf("got %d points", len(points))
	}
	// Checked branches must not decrease as the cap rises.
	for i := 1; i < len(points); i++ {
		if points[i].Checked < points[i-1].Checked {
			t.Errorf("checked count fell when raising the cap: %+v", points)
		}
	}
	if points[len(points)-1].TooDeep != 0 {
		t.Error("unlimited cap still reports capped branches")
	}
	if out := RenderNestSweep(points); !strings.Contains(out, "maxnest") {
		t.Error("render incomplete")
	}
}

func TestNetFaultGrid(t *testing.T) {
	if testing.Short() {
		t.Skip("remote fault campaign in -short mode")
	}
	// Config.Faults scales down to the per-cell minimum of 8; NetFault
	// itself fails on any self-healing contract violation.
	points, err := NetFault(Config{Faults: 100, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	wantRows := len(netFaultKernels) * 2
	if len(points) != wantRows {
		t.Fatalf("grid has %d rows, want %d", len(points), wantRows)
	}
	for _, p := range points {
		if p.Injected == 0 || p.Fired == 0 {
			t.Errorf("%s/%s: injected=%d fired=%d", p.Program, p.Transport, p.Injected, p.Fired)
		}
		if p.Absorbed+p.Recovered+p.Sealed != p.Injected {
			t.Errorf("%s/%s: outcomes %d+%d+%d do not account for %d runs",
				p.Program, p.Transport, p.Absorbed, p.Recovered, p.Sealed, p.Injected)
		}
	}
	if out := RenderNetFault(points); !strings.Contains(out, "unix") {
		t.Errorf("render missing transports:\n%s", out)
	}
}

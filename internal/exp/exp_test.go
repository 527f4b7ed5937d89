package exp

import (
	"fmt"
	"strings"
	"testing"

	"ndetect/internal/ndetect"
	"ndetect/internal/report"
)

func TestRunCircuit(t *testing.T) {
	run, err := RunCircuitWorkers("lion", 0)
	if err != nil {
		t.Fatalf("RunCircuitWorkers: %v", err)
	}
	if run.Name != "lion" || run.Universe == nil || run.WC == nil {
		t.Fatal("incomplete run")
	}
	if len(run.WC.NMin) != len(run.Universe.Untargeted) {
		t.Fatal("result length mismatch")
	}
	if _, err := RunCircuitWorkers("nope", 0); err == nil {
		t.Fatal("RunCircuitWorkers accepted unknown name")
	}
}

func TestTable2RowsConsistent(t *testing.T) {
	cfg := Config{Circuits: []string{"lion", "train4"}}
	rows, err := Table2(cfg, nil)
	if err != nil {
		t.Fatalf("Table2: %v", err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		prev := 0.0
		for i, p := range r.Pct {
			if p < prev-1e-9 {
				t.Fatalf("%s: coverage not monotone at column %d", r.Circuit, i)
			}
			if p < 0 || p > 100+1e-9 {
				t.Fatalf("%s: coverage out of range: %v", r.Circuit, p)
			}
			prev = p
		}
	}
}

func TestTable3OnlyTailCircuits(t *testing.T) {
	cfg := Config{Circuits: []string{"lion", "log"}}
	rows, err := Table3(cfg, nil)
	if err != nil {
		t.Fatalf("Table3: %v", err)
	}
	for _, r := range rows {
		if r.Ge11 == 0 {
			t.Fatalf("circuit %s with no tail included in Table 3", r.Circuit)
		}
		if r.Ge100 > r.Ge20 || r.Ge20 > r.Ge11 {
			t.Fatalf("%s: tail counts not monotone: %d %d %d", r.Circuit, r.Ge100, r.Ge20, r.Ge11)
		}
	}
	// lion has no tail; it must be absent.
	for _, r := range rows {
		if r.Circuit == "lion" {
			t.Fatal("lion must not appear in Table 3")
		}
	}
}

func TestFigure2AdaptsCutoff(t *testing.T) {
	// bbara has a tail that tops out well below 100: the cutoff adapts.
	s, err := Figure2("bbara", 100)
	if err != nil {
		t.Fatalf("Figure2: %v", err)
	}
	if !strings.Contains(s, "bbara") {
		t.Fatalf("figure missing circuit name:\n%s", s)
	}
	if strings.Contains(s, "no faults with") {
		t.Fatalf("cutoff did not adapt:\n%s", s)
	}
}

func TestTable5RowShape(t *testing.T) {
	cfg := Config{Circuits: []string{"bbara"}, K5: 40, Seed: 3}
	rows, err := Table5(cfg, nil)
	if err != nil {
		t.Fatalf("Table5: %v", err)
	}
	if len(rows) != 1 {
		t.Fatalf("rows = %d, want 1", len(rows))
	}
	r := rows[0]
	prev := 0
	for i, c := range r.Counts {
		if c < prev {
			t.Fatalf("threshold counts not cumulative at %d: %v", i, r.Counts)
		}
		prev = c
	}
	if r.Counts[10] != r.Faults {
		t.Fatalf("p ≥ 0 column (%d) must equal the fault count (%d)", r.Counts[10], r.Faults)
	}
}

// TestCapEvenlyTies pins the sampled indices when many nmin values tie:
// the sort is stable, so tied faults keep their input order.
func TestCapEvenlyTies(t *testing.T) {
	const inf = ndetect.Unbounded
	cases := []struct {
		name  string
		idx   []int
		nmin  []int
		limit int
		want  []int
	}{
		{"two values alternating", []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}, []int{5, 3, 5, 3, 5, 3, 5, 3, 5, 3}, 4, []int{1, 5, 0, 4}},
		{"unsorted input", []int{9, 2, 7, 4, 0, 5}, []int{1, 1, 2, 2, 1, 1, 2, 2, 1, 1}, 3, []int{9, 0, 2}},
		{"all tied", []int{3, 1, 2, 0}, []int{7, 7, 7, 7}, 2, []int{3, 2}},
		{"unbounded last", []int{0, 1, 2, 3, 4, 5}, []int{inf, 11, inf, 11, 12, 11}, 3, []int{1, 5, 0}},
		{"uncapped", []int{2, 0, 1}, []int{3, 2, 1}, 0, []int{2, 0, 1}},
		{"within limit", []int{2, 0, 1}, []int{3, 2, 1}, 3, []int{2, 0, 1}},
	}
	for _, c := range cases {
		got := capEvenly(append([]int(nil), c.idx...), c.nmin, c.limit)
		if fmt.Sprint(got) != fmt.Sprint(c.want) {
			t.Errorf("%s: capEvenly = %v, want %v", c.name, got, c.want)
		}
	}
}

func TestGe11SubsetSampling(t *testing.T) {
	run, err := RunCircuitWorkers("log", 0)
	if err != nil {
		t.Fatalf("RunCircuitWorkers: %v", err)
	}
	full := ge11Subset(run, 0)
	if len(full) != run.WC.CountAtLeast(11) {
		t.Fatalf("uncapped subset size %d != CountAtLeast(11) %d", len(full), run.WC.CountAtLeast(11))
	}
	capped := ge11Subset(run, 10)
	if len(full) > 10 && len(capped) != 10 {
		t.Fatalf("capped subset size = %d, want 10", len(capped))
	}
	seen := map[int]bool{}
	for _, j := range capped {
		if seen[j] {
			t.Fatal("duplicate index in capped subset")
		}
		seen[j] = true
		if run.WC.NMin[j] < 11 {
			t.Fatal("capped subset contains a fault below the nmin threshold")
		}
	}
}

func TestRunAllSinglePass(t *testing.T) {
	cfg := Config{Circuits: []string{"lion", "bbara"}, K5: 20, K6: 10, Ge11Limit: 20, Seed: 5}
	var observed []string
	res, err := RunAll(cfg, "bbara", true, true, func(n string) { observed = append(observed, n) })
	if err != nil {
		t.Fatalf("RunAll: %v", err)
	}
	if len(res.Table2) != 2 {
		t.Fatalf("Table2 rows = %d", len(res.Table2))
	}
	if len(observed) != 2 {
		t.Fatalf("observe callback fired %d times", len(observed))
	}
	if res.Figure2 == "" {
		t.Fatal("Figure2 missing")
	}
	// bbara has a (small) tail → appears in tables 3, 5, 6.
	foundT3 := false
	for _, r := range res.Table3 {
		if r.Circuit == "bbara" {
			foundT3 = true
		}
	}
	if !foundT3 {
		t.Fatal("bbara missing from Table 3")
	}
	if len(res.Table5) != 1 || len(res.Table6) != 1 {
		t.Fatalf("T5/T6 rows = %d/%d, want 1/1", len(res.Table5), len(res.Table6))
	}
	// Definition 2 should never be strictly worse in the final column and
	// the fault totals must agree between the two definitions.
	t6 := res.Table6[0]
	if t6.Def1[10] != t6.Def2[10] {
		t.Fatalf("Def1/Def2 totals differ: %d vs %d", t6.Def1[10], t6.Def2[10])
	}
}

func TestRunAllDeterministic(t *testing.T) {
	cfg := Config{Circuits: []string{"bbara"}, K5: 30, Seed: 9}
	a, err := RunAll(cfg, "", true, false, nil)
	if err != nil {
		t.Fatalf("RunAll: %v", err)
	}
	b, err := RunAll(cfg, "", true, false, nil)
	if err != nil {
		t.Fatalf("RunAll: %v", err)
	}
	if len(a.Table5) != len(b.Table5) {
		t.Fatal("nondeterministic row count")
	}
	for i := range a.Table5 {
		if a.Table5[i] != b.Table5[i] {
			t.Fatalf("nondeterministic Table 5 row %d: %v vs %v", i, a.Table5[i], b.Table5[i])
		}
	}
}

// TestGuaranteeAcrossPipeline is the central end-to-end property: on a real
// synthesized circuit, every fault the worst-case analysis guarantees at
// n ≤ nmax is detected by every random n-detection test set Procedure 1
// produces.
func TestGuaranteeAcrossPipeline(t *testing.T) {
	run, err := RunCircuitWorkers("beecount", 0)
	if err != nil {
		t.Fatalf("RunCircuitWorkers: %v", err)
	}
	res, err := ndetect.Procedure1(&run.Universe.Universe, ndetect.Procedure1Options{
		NMax: 5, K: 25, Seed: 13, KeepTestSets: true,
	})
	if err != nil {
		t.Fatalf("Procedure1: %v", err)
	}
	for j, g := range run.Universe.Untargeted {
		nm := run.WC.NMin[j]
		if nm > 5 {
			continue
		}
		for n := nm; n <= 5; n++ {
			for k, tk := range res.TestSets[n-1] {
				if !tk.Detects(g) {
					t.Fatalf("guarantee violated: %s nmin=%d missed by %d-detection set %d",
						g.Name, nm, n, k)
				}
			}
		}
	}
}

func TestTable2RowAgainstReport(t *testing.T) {
	run, err := RunCircuitWorkers("lion", 0)
	if err != nil {
		t.Fatalf("RunCircuitWorkers: %v", err)
	}
	row := Table2Row(run)
	out := report.FormatTable2([]report.Table2Row{row})
	if !strings.Contains(out, "lion") {
		t.Fatal("row lost its circuit name")
	}
}

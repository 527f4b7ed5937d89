package ndetect

import (
	"fmt"
	"math/rand"
	"testing"

	"ndetect/internal/bench"
	"ndetect/internal/bitset"
	"ndetect/internal/fault"
)

// table1Universe reproduces the paper's example exactly: the published
// T-sets of the faults in F(g0) for the Figure 1 circuit, and
// T(g0) = {6,7}. Every number asserted in TestTable1 is printed in the
// paper's Table 1.
func table1Universe() (*Universe, Fault) {
	const size = 16
	mk := func(members ...int) *bitset.Set { return bitset.FromMembers(size, members...) }
	targets := []Fault{
		{Name: "1/1", T: mk(4, 5, 6, 7)},
		{Name: "2/0", T: mk(6, 7, 12, 13, 14, 15)},
		{Name: "3/0", T: mk(2, 6, 7, 10, 14, 15)},
		{Name: "8/0", T: mk(2, 6, 10, 14)},
		{Name: "9/1", T: mk(0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11)},
		{Name: "10/0", T: mk(6, 7, 14, 15)},
		{Name: "11/0", T: mk(1, 2, 3, 5, 6, 7, 9, 10, 11, 13, 14, 15)},
	}
	g0 := Fault{Name: "(9,0,10,1)", T: mk(6, 7)}
	u := &Universe{Size: size, Targets: targets, Untargeted: []Fault{g0}}
	return u, g0
}

func TestTable1(t *testing.T) {
	u, g0 := table1Universe()
	want := map[string]int{
		"1/1": 3, "2/0": 5, "3/0": 5, "8/0": 4, "9/1": 11, "10/0": 3, "11/0": 11,
	}
	contribs := ContributingFaults(g0, u.Targets)
	if len(contribs) != len(want) {
		t.Fatalf("F(g0) has %d faults, want %d", len(contribs), len(want))
	}
	for _, pc := range contribs {
		if want[pc.Name] != pc.NMin {
			t.Errorf("nmin(g0, %s) = %d, want %d", pc.Name, pc.NMin, want[pc.Name])
		}
	}
	if got := NMin(g0, u.Targets); got != 3 {
		t.Fatalf("nmin(g0) = %d, want 3 (paper Table 1)", got)
	}
	wc := WorstCase(u)
	if wc.NMin[0] != 3 {
		t.Fatalf("WorstCase nmin = %d, want 3", wc.NMin[0])
	}
}

func TestNMinPairFormula(t *testing.T) {
	size := 32
	f := Fault{Name: "f", T: bitset.FromMembers(size, 1, 2, 3, 4, 5)}
	g := Fault{Name: "g", T: bitset.FromMembers(size, 4, 5, 6)}
	// N(f)=5, M=2 → nmin = 5-2+1 = 4.
	if got := NMinPair(g, f); got != 4 {
		t.Fatalf("NMinPair = %d, want 4", got)
	}
	// Disjoint → Unbounded.
	h := Fault{Name: "h", T: bitset.FromMembers(size, 30, 31)}
	if got := NMinPair(h, f); got != Unbounded {
		t.Fatalf("NMinPair disjoint = %d, want Unbounded", got)
	}
	// T(f) ⊆ T(g) → nmin = 1 (any detection of f detects g).
	sup := Fault{Name: "sup", T: bitset.FromMembers(size, 1, 2, 3, 4, 5, 6)}
	if got := NMinPair(sup, f); got != 1 {
		t.Fatalf("NMinPair superset = %d, want 1", got)
	}
}

func TestNMinUnboundedWhenNoOverlap(t *testing.T) {
	size := 16
	u := &Universe{
		Size:       size,
		Targets:    []Fault{{Name: "f", T: bitset.FromMembers(size, 0, 1)}},
		Untargeted: []Fault{{Name: "g", T: bitset.FromMembers(size, 15)}},
	}
	wc := WorstCase(u)
	if wc.NMin[0] != Unbounded {
		t.Fatalf("nmin = %d, want Unbounded", wc.NMin[0])
	}
	if wc.CoverageAt(1000000) != 0 {
		t.Fatal("unbounded fault counted as covered")
	}
	if wc.CountAtLeast(100) != 1 {
		t.Fatal("unbounded fault missing from CountAtLeast")
	}
}

func randomUniverse(rng *rand.Rand, size, nTargets, nUntargeted int) *Universe {
	mkSet := func(maxCard int) *bitset.Set {
		s := bitset.New(size)
		card := 1 + rng.Intn(maxCard)
		for i := 0; i < card; i++ {
			s.Add(rng.Intn(size))
		}
		return s
	}
	u := &Universe{Size: size}
	for i := 0; i < nTargets; i++ {
		u.Targets = append(u.Targets, Fault{Name: "f" + string(rune('0'+i%10)), T: mkSet(size / 2)})
	}
	for j := 0; j < nUntargeted; j++ {
		u.Untargeted = append(u.Untargeted, Fault{Name: "g" + string(rune('0'+j%10)), T: mkSet(size / 4)})
	}
	return u
}

// TestWorstCaseGuarantee verifies the central theorem of Section 2 on random
// universes: every n-detection test set with n ≥ nmin(g) detects g. The test
// sets are produced by Procedure 1, which generates arbitrary (random)
// n-detection test sets.
func TestWorstCaseGuarantee(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 10; trial++ {
		u := randomUniverse(rng, 64+rng.Intn(64), 8+rng.Intn(8), 6)
		wc := WorstCase(u)
		maxFinite := wc.MaxFinite()
		if maxFinite == 0 {
			continue
		}
		nmax := maxFinite
		if nmax > 40 {
			nmax = 40
		}
		res, err := Procedure1(u, Procedure1Options{
			NMax: nmax, K: 30, Seed: int64(trial), KeepTestSets: true,
		})
		if err != nil {
			t.Fatalf("Procedure1: %v", err)
		}
		for j, g := range u.Untargeted {
			nm := wc.NMin[j]
			if nm == Unbounded || nm > nmax {
				continue
			}
			for n := nm; n <= nmax; n++ {
				for k, tk := range res.TestSets[n-1] {
					if !tk.Detects(g) {
						t.Fatalf("trial %d: %d-detection set %d misses %s with nmin=%d",
							trial, n, k, g.Name, nm)
					}
				}
			}
		}
	}
}

// TestWorstCaseTightness verifies the bound is exact: U − T(g) is an
// (nmin(g)−1)-detection test set that misses g.
func TestWorstCaseTightness(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 20; trial++ {
		u := randomUniverse(rng, 64, 10, 8)
		wc := WorstCase(u)
		for j, g := range u.Untargeted {
			nm := wc.NMin[j]
			if nm == Unbounded || nm <= 1 {
				continue
			}
			w := TightnessWitness(u, j)
			ts := NewTestSet(u.Size)
			w.ForEach(func(v int) { ts.Add(v) })
			if ts.Detects(g) {
				t.Fatalf("witness detects %s", g.Name)
			}
			if !ts.IsNDetection(nm-1, u.Targets) {
				t.Fatalf("witness for %s is not an (nmin-1)=%d-detection test set", g.Name, nm-1)
			}
		}
	}
}

func TestCoverageAndCounts(t *testing.T) {
	u := &Universe{Size: 8}
	u.Targets = []Fault{{Name: "f", T: bitset.FromMembers(8, 0, 1, 2, 3)}}
	u.Untargeted = []Fault{
		{Name: "a", T: bitset.FromMembers(8, 0, 1, 2, 3)}, // nmin 1
		{Name: "b", T: bitset.FromMembers(8, 3)},          // nmin 4
		{Name: "c", T: bitset.FromMembers(8, 7)},          // unbounded
	}
	wc := WorstCase(u)
	if wc.NMin[0] != 1 || wc.NMin[1] != 4 || wc.NMin[2] != Unbounded {
		t.Fatalf("NMin = %v", wc.NMin)
	}
	if got := wc.CoverageAt(1); got != 1.0/3 {
		t.Fatalf("CoverageAt(1) = %v", got)
	}
	if got := wc.CoverageAt(4); got != 2.0/3 {
		t.Fatalf("CoverageAt(4) = %v", got)
	}
	if got := wc.CountAtLeast(2); got != 2 {
		t.Fatalf("CountAtLeast(2) = %v", got)
	}
	if got := wc.IndicesAtLeast(4); len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Fatalf("IndicesAtLeast(4) = %v", got)
	}
	if got := wc.MaxFinite(); got != 4 {
		t.Fatalf("MaxFinite = %v", got)
	}
	vals, counts := wc.Histogram(1)
	if len(vals) != 2 || vals[0] != 1 || vals[1] != 4 || counts[0] != 1 || counts[1] != 1 {
		t.Fatalf("Histogram = %v %v", vals, counts)
	}
}

// TestWorstCaseWorkersDeterministic pins the §5 invariant for the
// worst-case stage: the Workers knob changes wall-clock time only, and
// workers=1 is the exact serial path (no hidden GOMAXPROCS fan-out).
func TestWorstCaseWorkersDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 5; trial++ {
		u := randomUniverse(rng, 128, 12, 30)
		want := WorstCaseWorkers(u, 1)
		for _, workers := range []int{2, 8, 0} {
			got := WorstCaseWorkers(u, workers)
			for j := range want.NMin {
				if got.NMin[j] != want.NMin[j] {
					t.Fatalf("trial %d workers=%d: nmin[%d] = %d, want %d",
						trial, workers, j, got.NMin[j], want.NMin[j])
				}
			}
		}
	}
}

func TestEmptyUntargetedCoverage(t *testing.T) {
	wc := WorstCase(&Universe{Size: 4, Targets: []Fault{{Name: "f", T: bitset.FromMembers(4, 0)}}})
	if wc.CoverageAt(1) != 1 {
		t.Fatal("vacuous coverage should be 1")
	}
}

// cubeUniverse builds T-sets as unions of random input cubes on n inputs.
// Cubes that conflict on an input are disjoint, and the sketch proves most
// such pairs, so unlike randomUniverse's dense sets this exercises the
// worst case's sketch skip on most scanned pairs.
func cubeUniverse(rng *rand.Rand, n, nTargets, nUntargeted int) *Universe {
	size := 1 << n
	mkSet := func(cubes int) *bitset.Set {
		s := bitset.New(size)
		for ; cubes > 0; cubes-- {
			care := rng.Intn(size) | rng.Intn(size)
			val := rng.Intn(size) & care
			for v := 0; v < size; v++ {
				if v&care == val {
					s.Add(v)
				}
			}
		}
		return s
	}
	u := &Universe{Size: size}
	for i := 0; i < nTargets; i++ {
		u.Targets = append(u.Targets, Fault{Name: "f", T: mkSet(1 + rng.Intn(3))})
	}
	for j := 0; j < nUntargeted; j++ {
		u.Untargeted = append(u.Untargeted, Fault{Name: "g", T: mkSet(1 + rng.Intn(2))})
	}
	return u
}

// worstCaseMatchesNMin compares WorstCaseWorkers at workers 1 and 4 with
// the unpruned per-fault NMin.
func worstCaseMatchesNMin(t *testing.T, label string, u *Universe) {
	t.Helper()
	for _, workers := range []int{1, 4} {
		wc := WorstCaseWorkers(u, workers)
		for j, g := range u.Untargeted {
			if want := NMin(g, u.Targets); wc.NMin[j] != want {
				t.Fatalf("%s, workers %d: nmin[%d] = %d, per-fault NMin = %d", label, workers, j, wc.NMin[j], want)
			}
		}
	}
}

// TestWorstCaseSketchDisjointUniverses: on universes where most (f, g)
// pairs are sketch-disjoint, the worst case still equals per-fault NMin.
func TestWorstCaseSketchDisjointUniverses(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	var pairs, proved, finite int
	for n := 8; n <= 14; n++ {
		u := cubeUniverse(rng, n, 40, 60)
		for _, g := range u.Untargeted {
			for _, f := range u.Targets {
				pairs++
				if bitset.Disjoint(g.T.Sketch(), f.T.Sketch()) {
					proved++
				}
			}
			if NMin(g, u.Targets) != Unbounded {
				finite++
			}
		}
		worstCaseMatchesNMin(t, fmt.Sprintf("%d inputs", n), u)
	}
	if 2*proved < pairs || finite == 0 {
		t.Fatalf("%d of %d pairs sketch-disjoint, %d finite nmin: the universes miss the skip path", proved, pairs, finite)
	}
	t.Logf("%d of %d pairs sketch-disjoint, %d finite nmin", proved, pairs, finite)
}

// TestWorstCaseEmbeddedCircuits runs the same comparison on the universes
// of two embedded benchmark circuits.
func TestWorstCaseEmbeddedCircuits(t *testing.T) {
	for _, name := range []string{"bbara", "opus"} {
		b, ok := bench.ByName(name)
		if !ok {
			t.Fatalf("benchmark %s not embedded", name)
		}
		r, err := b.SynthesizeDefault()
		if err != nil {
			t.Fatal(err)
		}
		u, err := BuildUniverse(r.Circuit, fault.Default(), AnalyzeOptions{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		worstCaseMatchesNMin(t, name, &u.Universe)
	}
}

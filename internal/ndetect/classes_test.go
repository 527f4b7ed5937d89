package ndetect

import (
	"math/bits"
	"math/rand"
	"testing"

	"ndetect/internal/bitset"
)

// plantDuplicates returns faults with extra faults mixed in: exact copies
// of existing T-sets (fresh bitsets and shared pointers alike) and
// near-duplicates one member apart, at random positions.
func plantDuplicates(rng *rand.Rand, faults []Fault, extra int) []Fault {
	out := append([]Fault(nil), faults...)
	for i := 0; i < extra; i++ {
		src := out[rng.Intn(len(out))]
		g := Fault{Name: src.Name + "'", T: src.T}
		switch rng.Intn(3) {
		case 0:
			g.T = src.T.Clone()
		case 1:
			g.T = src.T.Clone()
			if v := rng.Intn(g.T.Size()); g.T.Contains(v) {
				g.T.Remove(v)
			} else {
				g.T.Add(v)
			}
		}
		at := rng.Intn(len(out) + 1)
		out = append(out[:at], append([]Fault{g}, out[at:]...)...)
	}
	return out
}

// TestTSetClasses checks the grouping against pairwise comparison: two
// faults share a class iff their T-sets are equal, and classes are
// numbered by first occurrence with the lowest member as representative.
func TestTSetClasses(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 20; trial++ {
		size := 64 + rng.Intn(200)
		faults := plantDuplicates(rng, randomUniverse(rng, size, 0, 10+rng.Intn(20)).Untargeted, 30)
		faults = append(faults, Fault{Name: "e1", T: bitset.New(size)}, Fault{Name: "e2", T: bitset.New(size)})
		classOf, reps := tsetClasses(faults)
		next := 0
		for j, g := range faults {
			c := int(classOf[j])
			if c == next {
				if reps[c] != j {
					t.Fatalf("trial %d: class %d first seen at %d, rep %d", trial, c, j, reps[c])
				}
				next++
			} else if c > next {
				t.Fatalf("trial %d: fault %d opens class %d before class %d", trial, j, c, next)
			}
			for k := 0; k < j; k++ {
				if same := classOf[k] == classOf[j]; same != g.T.Equal(faults[k].T) {
					t.Fatalf("trial %d: faults %d and %d: same class %v, equal T-sets %v", trial, k, j, same, !same)
				}
			}
		}
		if next != len(reps) {
			t.Fatalf("trial %d: %d classes numbered, %d representatives", trial, next, len(reps))
		}
	}
}

// TestTSetClassesHashCollision: unequal T-sets with equal hashes stay in
// separate classes, and a later copy of either still finds its own class.
func TestTSetClassesHashCollision(t *testing.T) {
	// Two-word sets: after the first word the hash state is
	// s = (rotl(2, 29) ^ w0) * k, and the second word enters as
	// rotl(s, 29) ^ w1, so choosing w1 cancels any difference in s.
	const k = 0x9E3779B97F4A7C15
	state := func(w0 uint64) uint64 { return bits.RotateLeft64((bits.RotateLeft64(2, 29)^w0)*k, 29) }
	mk := func(w0, w1 uint64) *bitset.Set {
		s := bitset.New(128)
		s.SetWord(0, w0)
		s.SetWord(1, w1)
		return s
	}
	a := mk(1, 7)
	b := mk(2, 7^state(1)^state(2))
	if a.Equal(b) || tsetHash(a.Words()) != tsetHash(b.Words()) {
		t.Fatal("test sets do not collide under tsetHash")
	}
	faults := []Fault{{Name: "a", T: a}, {Name: "b", T: b}, {Name: "b2", T: b.Clone()}, {Name: "a2", T: a.Clone()}}
	classOf, reps := tsetClasses(faults)
	if len(reps) != 2 || classOf[0] != 0 || classOf[1] != 1 || classOf[2] != 1 || classOf[3] != 0 {
		t.Fatalf("classes %v, representatives %v; want [0 1 1 0], [0 1]", classOf, reps)
	}
}

// TestWorstCaseClassesMatchPerFault: running the worst case once per class
// of untargeted faults, over one target per class of targets, gives every
// fault exactly its own per-fault nmin(g), at every worker count.
func TestWorstCaseClassesMatchPerFault(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	for trial := 0; trial < 10; trial++ {
		u := randomUniverse(rng, 64+rng.Intn(128), 8+rng.Intn(8), 12)
		u.Targets = plantDuplicates(rng, u.Targets, 8)
		u.Untargeted = plantDuplicates(rng, u.Untargeted, 24)
		for _, workers := range []int{1, 4} {
			wc := WorstCaseWorkers(u, workers)
			for j, g := range u.Untargeted {
				if want := NMin(g, u.Targets); wc.NMin[j] != want {
					t.Fatalf("trial %d, workers %d: nmin[%d] = %d, per-fault NMin = %d", trial, workers, j, wc.NMin[j], want)
				}
			}
		}
	}
}

// hashChecker is a deterministic, symmetric Definition 2 oracle that calls
// roughly a third of the pairs similar.
type hashChecker struct{}

func (hashChecker) Distinct(fi, t1, t2 int) bool {
	if t1 > t2 {
		t1, t2 = t2, t1
	}
	return (fi*7919+t1*104729+t2*1299709)%3 != 0
}

// TestProcedure1DuplicatedUniverse: with every untargeted fault doubled,
// each pair gets the same d(n,g), equal to the count the fault gets in the
// original universe (the RNG draws never depend on G). Both definitions.
func TestProcedure1DuplicatedUniverse(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	u := randomUniverse(rng, 160, 14, 10)
	dup := &Universe{Size: u.Size, Targets: u.Targets}
	for _, g := range u.Untargeted {
		dup.Untargeted = append(dup.Untargeted, g, Fault{Name: g.Name + "'", T: g.T.Clone()})
	}
	for _, def := range []Definition{Def1, Def2} {
		opts := Procedure1Options{NMax: 5, K: 60, Seed: 11, Definition: def, Workers: 2}
		if def == Def2 {
			opts.Checker = hashChecker{}
		}
		orig, err := Procedure1(u, opts)
		if err != nil {
			t.Fatal(err)
		}
		got, err := Procedure1(dup, opts)
		if err != nil {
			t.Fatal(err)
		}
		for n := range got.Detected {
			for j, want := range orig.Detected[n] {
				a, b := got.Detected[n][2*j], got.Detected[n][2*j+1]
				if a != b || a != want {
					t.Fatalf("Def%d n=%d g%d: duplicated pair %d/%d, original %d", def, n+1, j, a, b, want)
				}
			}
			if got.SetSizeSum[n] != orig.SetSizeSum[n] {
				t.Fatalf("Def%d n=%d: set sizes %d vs %d", def, n+1, got.SetSizeSum[n], orig.SetSizeSum[n])
			}
		}
	}
}

// TestPickRandomOutsideMatchesDifference: the in-place pick makes the same
// single draw and returns the same member as selecting from a materialized
// T(f) − Tk.
func TestPickRandomOutsideMatchesDifference(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for trial := 0; trial < 200; trial++ {
		size := 1 + rng.Intn(300)
		tset := bitset.New(size)
		tk := NewTestSet(size)
		for i := 0; i < size/2; i++ {
			tset.Add(rng.Intn(size))
			tk.Add(rng.Intn(size))
		}
		seed := rng.Int63()
		a, b := rand.New(rand.NewSource(seed)), rand.New(rand.NewSource(seed))
		got, ok := pickRandomOutside(tset, tk, a)
		diff := tset.Difference(tk.Set())
		if c := diff.Count(); c == 0 {
			if ok {
				t.Fatalf("trial %d: picked %d from an empty difference", trial, got)
			}
		} else if want := diff.Nth(b.Intn(c)); !ok || got != want {
			t.Fatalf("trial %d: picked %d (ok=%v), want %d", trial, got, ok, want)
		}
		if a.Int63() != b.Int63() {
			t.Fatalf("trial %d: the pick consumed a different number of draws", trial)
		}
	}
}

package sim

import (
	"math/rand"
	"testing"

	"ndetect/internal/circuit"
	"ndetect/internal/fault"
)

func TestTVOperators(t *testing.T) {
	if tvNot(Zero) != One || tvNot(One) != Zero || tvNot(X) != X {
		t.Fatal("tvNot wrong")
	}
	// AND: controlled by 0.
	if tvAnd(Zero, X) != Zero || tvAnd(X, Zero) != Zero {
		t.Fatal("tvAnd: 0 must dominate")
	}
	if tvAnd(One, X) != X || tvAnd(One, One) != One {
		t.Fatal("tvAnd wrong")
	}
	// OR: controlled by 1.
	if tvOr(One, X) != One || tvOr(X, One) != One {
		t.Fatal("tvOr: 1 must dominate")
	}
	if tvOr(Zero, X) != X || tvOr(Zero, Zero) != Zero {
		t.Fatal("tvOr wrong")
	}
	// XOR: X poisons.
	if tvXor(X, One) != X || tvXor(One, Zero) != One || tvXor(One, One) != Zero {
		t.Fatal("tvXor wrong")
	}
	if Zero.String() != "0" || One.String() != "1" || X.String() != "X" {
		t.Fatal("String wrong")
	}
}

func TestCommonTest(t *testing.T) {
	// ti=0110 (6), tj=0111 (7) over 4 inputs: common = 011X.
	p := CommonTest(6, 7, 4)
	want := []TV{Zero, One, One, X}
	for i := range want {
		if p[i] != want[i] {
			t.Fatalf("CommonTest(6,7) = %v, want %v", p, want)
		}
	}
	// Identical tests have no X.
	p = CommonTest(5, 5, 4)
	for i, v := range p {
		if v == X {
			t.Fatalf("CommonTest(5,5)[%d] = X", i)
		}
	}
	// Complementary tests are all X.
	p = CommonTest(0b1010, 0b0101, 4)
	for i, v := range p {
		if v != X {
			t.Fatalf("CommonTest(1010,0101)[%d] = %v, want X", i, v)
		}
	}
}

func TestFullTest(t *testing.T) {
	p := FullTest(6, 4)
	want := []TV{Zero, One, One, Zero}
	for i := range want {
		if p[i] != want[i] {
			t.Fatalf("FullTest(6) = %v, want %v", p, want)
		}
	}
}

// TestTVConservativeness: a 3-valued simulation result that is definite must
// agree with every completion of the X bits.
func TestTVConservativeness(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 15; trial++ {
		c := randomCircuit(t, rng, 4, 10+rng.Intn(10))
		m := c.NumInputs()
		for iter := 0; iter < 20; iter++ {
			pattern := make([]TV, m)
			for i := range pattern {
				pattern[i] = TV(rng.Intn(3))
			}
			vals := SimulateTV(c, pattern, -1, X)
			// Enumerate completions.
			xPos := []int{}
			base := uint64(0)
			for i, p := range pattern {
				switch p {
				case One:
					base = circuit.SetVectorBit(base, i, m, true)
				case X:
					xPos = append(xPos, i)
				}
			}
			for comp := 0; comp < 1<<uint(len(xPos)); comp++ {
				v := base
				for k, pos := range xPos {
					v = circuit.SetVectorBit(v, pos, m, (comp>>uint(k))&1 == 1)
				}
				full := c.Eval(v)
				for id := range c.Nodes {
					if vals[id] == X {
						continue
					}
					want := One
					if !full[id] {
						want = Zero
					}
					if vals[id] != want {
						t.Fatalf("trial %d: node %d definite %v but completion %d gives %v",
							trial, id, vals[id], v, want)
					}
				}
			}
		}
	}
}

// TestDetectsTVAgainstExhaustive: on fully specified patterns, DetectsTV must
// agree exactly with membership in the exhaustive T-set.
func TestDetectsTVFullySpecified(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 8; trial++ {
		c := randomCircuit(t, rng, 4, 8+rng.Intn(10))
		e, err := RunWorkers(c, 0)
		if err != nil {
			t.Fatalf("RunWorkers: %v", err)
		}
		faults := fault.AllStuckAt(c)
		tsets := e.StuckAtTSets(faults)
		for fi, f := range faults {
			for v := 0; v < c.VectorSpaceSize(); v++ {
				got := DetectsTV(c, FullTest(uint64(v), c.NumInputs()), f)
				want := tsets[fi].Contains(v)
				if got != want {
					t.Fatalf("trial %d fault %s v=%d: DetectsTV=%v, T-set=%v",
						trial, f.Name(c), v, got, want)
				}
			}
		}
	}
}

// TestDetectsTVPartialIsConservative: if a partial pattern detects f under
// 3-valued simulation, then every completion of it detects f.
func TestDetectsTVPartialIsConservative(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	c := randomCircuit(t, rng, 5, 15)
	e, err := RunWorkers(c, 0)
	if err != nil {
		t.Fatalf("RunWorkers: %v", err)
	}
	faults := fault.AllStuckAt(c)
	tsets := e.StuckAtTSets(faults)
	m := c.NumInputs()
	for trial := 0; trial < 300; trial++ {
		ti := uint64(rng.Intn(c.VectorSpaceSize()))
		tj := uint64(rng.Intn(c.VectorSpaceSize()))
		p := CommonTest(ti, tj, m)
		fi := rng.Intn(len(faults))
		if !DetectsTV(c, p, faults[fi]) {
			continue
		}
		// Every completion must be in T(f). Completions of p include ti, tj.
		if !tsets[fi].Contains(int(ti)) || !tsets[fi].Contains(int(tj)) {
			t.Fatalf("t_ij detects %s but an endpoint does not (ti=%d tj=%d)",
				faults[fi].Name(c), ti, tj)
		}
	}
}

package sim

import (
	"math/rand"
	"testing"

	"ndetect/internal/fault"
)

// TestDetectsTVBatchMatchesScalar: the dual-rail batched simulation must
// agree with the scalar 3-valued path for every pattern and fault.
func TestDetectsTVBatchMatchesScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 10; trial++ {
		c := randomCircuit(t, rng, 4+rng.Intn(3), 10+rng.Intn(12))
		m := c.NumInputs()
		faults := fault.AllStuckAt(c)
		for _, f := range faults[:min(len(faults), 12)] {
			cone := CompileCircuit(c).NewFaultCone(f.Node)
			var patterns [][]TV
			for i := 0; i < 50; i++ {
				p := make([]TV, m)
				for j := range p {
					p[j] = TV(rng.Intn(3))
				}
				patterns = append(patterns, p)
			}
			got := cone.DetectsTVBatch(patterns, f.Value)
			for i, p := range patterns {
				want := cone.DetectsTV(p, f.Value)
				if got[i] != want {
					t.Fatalf("trial %d fault %s pattern %d: batch %v, scalar %v",
						trial, f.Name(c), i, got[i], want)
				}
				// And the scalar cone path must agree with the full-circuit
				// reference DetectsTV.
				if ref := DetectsTV(c, p, f); ref != want {
					t.Fatalf("trial %d fault %s pattern %d: cone %v, reference %v",
						trial, f.Name(c), i, want, ref)
				}
			}
		}
	}
}

func TestDetectsTVBatchEdgeCases(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	c := randomCircuit(t, rng, 4, 10)
	f := fault.AllStuckAt(c)[0]
	cone := CompileCircuit(c).NewFaultCone(f.Node)

	if got := cone.DetectsTVBatch(nil, f.Value); got != nil {
		t.Fatal("empty batch should return nil")
	}
	// A single pattern works.
	p := FullTest(3, c.NumInputs())
	got := cone.DetectsTVBatch([][]TV{p}, f.Value)
	if len(got) != 1 || got[0] != cone.DetectsTV(p, f.Value) {
		t.Fatal("single-pattern batch disagrees")
	}
	// Exactly 64 patterns works; 65 panics.
	var many [][]TV
	for i := 0; i < 64; i++ {
		many = append(many, FullTest(uint64(i%c.VectorSpaceSize()), c.NumInputs()))
	}
	_ = cone.DetectsTVBatch(many, f.Value)
	defer func() {
		if recover() == nil {
			t.Fatal("65-pattern batch did not panic")
		}
	}()
	cone.DetectsTVBatch(append(many, p), f.Value)
}

// TestFaultConeUnobservable: a cone with no outputs never detects.
func TestFaultConeUnobservable(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	c := randomCircuit(t, rng, 4, 12)
	// Find a node that reaches no output, if any (dangling gates happen in
	// random circuits when later gates are the only outputs).
	for _, n := range c.Nodes {
		cone := CompileCircuit(c).NewFaultCone(n.ID)
		if len(cone.outputs) > 0 {
			continue
		}
		p := FullTest(0, c.NumInputs())
		if cone.DetectsTV(p, true) || cone.DetectsTV(p, false) {
			t.Fatalf("unobservable node %s detected", n.Name)
		}
		got := cone.DetectsTVBatch([][]TV{p}, true)
		if got[0] {
			t.Fatalf("unobservable node %s detected in batch", n.Name)
		}
		return
	}
	t.Skip("no unobservable node in this random circuit")
}

// TestDualRailEncodingOperators verifies the dual-rail gate equations
// against the scalar TV operators on all value combinations.
func TestDualRailEncodingOperators(t *testing.T) {
	enc := func(v TV) (uint64, uint64) {
		switch v {
		case One:
			return 1, 0
		case Zero:
			return 0, 1
		default:
			return 1, 1
		}
	}
	dec := func(p1, p0 uint64) TV {
		switch {
		case p1 == 1 && p0 == 0:
			return One
		case p1 == 0 && p0 == 1:
			return Zero
		default:
			return X
		}
	}
	vals := []TV{Zero, One, X}
	for _, a := range vals {
		for _, b := range vals {
			a1, a0 := enc(a)
			b1, b0 := enc(b)
			if got := dec(a1&b1, a0|b0); got != tvAnd(a, b) {
				t.Fatalf("AND(%v,%v): dual-rail %v, scalar %v", a, b, got, tvAnd(a, b))
			}
			if got := dec(a1|b1, a0&b0); got != tvOr(a, b) {
				t.Fatalf("OR(%v,%v): dual-rail %v, scalar %v", a, b, got, tvOr(a, b))
			}
			x1 := (a1 & b0) | (a0 & b1)
			x0 := (a1 & b1) | (a0 & b0)
			if got := dec(x1, x0); got != tvXor(a, b) {
				t.Fatalf("XOR(%v,%v): dual-rail %v, scalar %v", a, b, got, tvXor(a, b))
			}
		}
		a1, a0 := enc(a)
		if got := dec(a0, a1); got != tvNot(a) {
			t.Fatalf("NOT(%v): dual-rail %v, scalar %v", a, got, tvNot(a))
		}
	}
}

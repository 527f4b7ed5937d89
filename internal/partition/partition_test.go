package partition

import (
	"testing"

	"ndetect/internal/circuit"
	"ndetect/internal/fault"
	"ndetect/internal/ndetect"
)

// wideCircuit builds a circuit whose outputs have disjoint small cones, so
// partitioning is clean: out_k = (x_{2k} AND x_{2k+1}) OR x_shared.
func wideCircuit(t *testing.T, groups int) *circuit.Circuit {
	t.Helper()
	b := circuit.NewBuilder("wide")
	b.Input("shared")
	for g := 0; g < groups; g++ {
		b.Input(name("a", g))
		b.Input(name("b", g))
	}
	for g := 0; g < groups; g++ {
		b.Gate(circuit.And, name("and", g), name("a", g), name("b", g))
		b.Gate(circuit.Or, name("out", g), name("and", g), "shared")
		b.Output(name("out", g))
	}
	c, err := b.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	return c
}

func name(p string, i int) string {
	return p + string(rune('0'+i/10)) + string(rune('0'+i%10))
}

func TestExtractSingleCone(t *testing.T) {
	c := wideCircuit(t, 8) // 17 inputs total
	p, err := Extract(c, []int{3})
	if err != nil {
		t.Fatalf("Extract: %v", err)
	}
	if p.Circuit.NumInputs() != 3 { // shared, a03, b03
		t.Fatalf("part inputs = %d, want 3", p.Circuit.NumInputs())
	}
	if p.Circuit.NumOutputs() != 1 {
		t.Fatalf("part outputs = %d, want 1", p.Circuit.NumOutputs())
	}
	// Functional check: part output equals original output on matching
	// assignments.
	full := c.Eval(0)
	_ = full
	for v := uint64(0); v < 8; v++ {
		sh := circuit.VectorBit(v, 0, 3)
		a := circuit.VectorBit(v, 1, 3)
		bb := circuit.VectorBit(v, 2, 3)
		want := (a && bb) || sh
		got := p.Circuit.OutputsOf(p.Circuit.Eval(v))[0]
		if got != want {
			t.Fatalf("part function wrong at %d", v)
		}
	}
}

func TestSplitRespectsLimit(t *testing.T) {
	c := wideCircuit(t, 10) // 21 inputs
	parts, err := Split(c, Options{MaxInputs: 7})
	if err != nil {
		t.Fatalf("Split: %v", err)
	}
	if len(parts) < 2 {
		t.Fatalf("expected multiple parts, got %d", len(parts))
	}
	covered := map[int]bool{}
	for _, p := range parts {
		if p.Circuit.NumInputs() > 7 {
			t.Fatalf("part has %d inputs > limit", p.Circuit.NumInputs())
		}
		for _, o := range p.Outputs {
			if covered[o] {
				t.Fatalf("output %d covered twice", o)
			}
			covered[o] = true
		}
	}
	if len(covered) != c.NumOutputs() {
		t.Fatalf("parts cover %d of %d outputs", len(covered), c.NumOutputs())
	}
}

func TestSplitRejectsOversizedCone(t *testing.T) {
	b := circuit.NewBuilder("big")
	fins := make([]string, 9)
	for i := range fins {
		fins[i] = name("x", i)
		b.Input(fins[i])
	}
	b.Gate(circuit.And, "g", fins...)
	b.Output("g")
	c, err := b.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	if _, err := Split(c, Options{MaxInputs: 8}); err == nil {
		t.Fatal("Split accepted a cone wider than the limit")
	}
}

func TestPartsAnalyzable(t *testing.T) {
	c := wideCircuit(t, 10)
	parts, err := Split(c, Options{MaxInputs: 9})
	if err != nil {
		t.Fatalf("Split: %v", err)
	}
	for _, p := range parts {
		u, err := ndetect.BuildUniverse(p.Circuit, fault.Default(), ndetect.AnalyzeOptions{})
		if err != nil {
			t.Fatalf("BuildUniverse(%v, fault.Default(), AnalyzeOptions{}): %v", p.Outputs, err)
		}
		wc := ndetect.WorstCase(&u.Universe)
		for _, nm := range wc.NMin {
			if nm < 1 {
				t.Fatal("invalid nmin in part analysis")
			}
		}
	}
}

func TestMergeNMin(t *testing.T) {
	merged := MergeNMin([]map[string]int{
		{"a": 5, "b": 2},
		{"a": 3, "c": ndetect.Unbounded},
		{"c": 7},
	})
	if merged["a"] != 3 || merged["b"] != 2 || merged["c"] != 7 {
		t.Fatalf("MergeNMin = %v", merged)
	}
}

func TestExtractErrors(t *testing.T) {
	c := wideCircuit(t, 2)
	if _, err := Extract(c, nil); err == nil {
		t.Fatal("Extract accepted empty output list")
	}
	if _, err := Extract(c, []int{99}); err == nil {
		t.Fatal("Extract accepted out-of-range output")
	}
}

func TestExtractPreservesFunctionAcrossParts(t *testing.T) {
	// Every part output must compute the same function as the original
	// output restricted to the part's support.
	c := wideCircuit(t, 6)
	parts, err := Split(c, Options{MaxInputs: 13})
	if err != nil {
		t.Fatalf("Split: %v", err)
	}
	for _, p := range parts {
		sub := p.Circuit
		for v := 0; v < sub.VectorSpaceSize(); v++ {
			// Build the corresponding full vector: part inputs at their
			// original positions, zeros elsewhere.
			var fullVec uint64
			for i, pos := range p.Support {
				fullVec = circuit.SetVectorBit(fullVec, pos, c.NumInputs(),
					circuit.VectorBit(uint64(v), i, sub.NumInputs()))
			}
			fullOuts := c.OutputsOf(c.Eval(fullVec))
			subOuts := sub.OutputsOf(sub.Eval(uint64(v)))
			for i, oi := range p.Outputs {
				if subOuts[i] != fullOuts[oi] {
					t.Fatalf("part output %d differs from original output %d at v=%d", i, oi, v)
				}
			}
		}
	}
}

package sim

import (
	"math/rand"
	"runtime"
	"strconv"
	"testing"

	"ndetect/internal/circuit"
	"ndetect/internal/engine"
	"ndetect/internal/fault"
	"ndetect/internal/oracle"
)

// testCircuit builds the 4-input example used across the sim tests:
// f = (i1∧i2) ∨ (i2∧i3∧i4), plus a second output h = ¬(i3∧i4).
func testCircuit(t *testing.T) *circuit.Circuit {
	t.Helper()
	b := circuit.NewBuilder("simtest")
	b.Input("i1")
	b.Input("i2")
	b.Input("i3")
	b.Input("i4")
	b.Gate(circuit.And, "g9", "i1", "i2")
	b.Gate(circuit.And, "g10", "i2", "i3", "i4")
	b.Gate(circuit.Or, "g11", "g9", "g10")
	b.Gate(circuit.Nand, "g12", "i3", "i4")
	b.Output("g11")
	b.Output("g12")
	c, err := b.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	return c
}

// randomCircuit builds a random normalized DAG circuit for cross-checks.
func randomCircuit(t *testing.T, rng *rand.Rand, inputs, gates int) *circuit.Circuit {
	t.Helper()
	b := circuit.NewBuilder("rand")
	names := make([]string, 0, inputs+gates)
	for i := 0; i < inputs; i++ {
		n := "x" + strconv.Itoa(i)
		b.Input(n)
		names = append(names, n)
	}
	kinds := []circuit.Kind{circuit.And, circuit.Or, circuit.Nand, circuit.Nor, circuit.Xor, circuit.Xnor, circuit.Not, circuit.Buf}
	for g := 0; g < gates; g++ {
		kind := kinds[rng.Intn(len(kinds))]
		n := "g" + strconv.Itoa(g)
		if kind == circuit.Not || kind == circuit.Buf {
			b.Gate(kind, n, names[rng.Intn(len(names))])
		} else {
			nf := 2 + rng.Intn(3)
			perm := rng.Perm(len(names))
			fins := make([]string, 0, nf)
			for _, p := range perm[:min(nf, len(perm))] {
				fins = append(fins, names[p])
			}
			b.Gate(kind, n, fins...)
		}
		names = append(names, n)
	}
	// Outputs: the last few gates.
	nOut := 1 + rng.Intn(3)
	for i := 0; i < nOut; i++ {
		b.Output("g" + strconv.Itoa(gates-1-i))
	}
	c, err := b.Build()
	if err != nil {
		t.Fatalf("random Build: %v", err)
	}
	return c
}

// checkStreamMatchesEval streams the compiled good machine over U in
// blocks of blockWords words on the given worker count — the schedule
// every T-set builder reads its good values from — and checks every node
// at every vector against circuit.Eval.
func checkStreamMatchesEval(t *testing.T, c *circuit.Circuit, workers, blockWords int) {
	t.Helper()
	e, err := RunWorkers(c, workers)
	if err != nil {
		t.Fatalf("RunWorkers: %v", err)
	}
	size := c.VectorSpaceSize()
	streamBlocks(e.prog, workers, universeWords(size), blockWords, func(lo, hi int, x *engine.Exec) {
		for v := lo * 64; v < min(hi*64, size); v++ {
			want := c.Eval(uint64(v))
			for id := range c.Nodes {
				if got := x.Node(id)[v/64-lo]>>(v%64)&1 != 0; got != want[id] {
					t.Errorf("%s node %d at v=%d: streamed %v, circuit.Eval %v", c.Name, id, v, got, want[id])
					return
				}
			}
		}
	})
}

func TestRunMatchesScalarEval(t *testing.T) {
	checkStreamMatchesEval(t, testCircuit(t), 1, 1)
}

func TestRunMatchesScalarEvalRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 20; trial++ {
		c := randomCircuit(t, rng, 3+rng.Intn(10), 5+rng.Intn(25))
		// One-word blocks over up to four workers: many blocks, each
		// evaluated by a pooled execution context reused across blocks.
		checkStreamMatchesEval(t, c, 1+rng.Intn(4), 1)
	}
}

func TestRunRejectsWideCircuits(t *testing.T) {
	b := circuit.NewBuilder("wide")
	names := make([]string, MaxInputs+2)
	for i := range names {
		names[i] = "x" + strconv.Itoa(i)
		b.Input(names[i])
	}
	b.Gate(circuit.And, "g", names...)
	b.Output("g")
	c, err := b.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	if _, err := RunWorkers(c, 0); err == nil {
		t.Fatalf("RunWorkers accepted a %d-input circuit", MaxInputs+2)
	}
}

func TestStuckAtTSetsMatchNaive(t *testing.T) {
	c := testCircuit(t)
	e, err := RunWorkers(c, 0)
	if err != nil {
		t.Fatalf("RunWorkers: %v", err)
	}
	faults := fault.AllStuckAt(c)
	tsets := e.StuckAtTSets(faults)
	for i, f := range faults {
		want := oracle.StuckAtTSet(c, f)
		if !tsets[i].Equal(want) {
			t.Fatalf("fault %s: streamed %s, oracle %s", f.Name(c), tsets[i], want)
		}
	}
}

func TestStuckAtTSetsMatchNaiveRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 10; trial++ {
		c := randomCircuit(t, rng, 4+rng.Intn(4), 8+rng.Intn(15))
		e, err := RunWorkers(c, 0)
		if err != nil {
			t.Fatalf("RunWorkers: %v", err)
		}
		faults := fault.AllStuckAt(c)
		tsets := e.StuckAtTSets(faults)
		for i, f := range faults {
			want := oracle.StuckAtTSet(c, f)
			if !tsets[i].Equal(want) {
				t.Fatalf("trial %d fault %s: streamed %s, oracle %s", trial, f.Name(c), tsets[i], want)
			}
		}
	}
}

func TestBridgeTSetsMatchNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 10; trial++ {
		c := randomCircuit(t, rng, 4+rng.Intn(4), 8+rng.Intn(15))
		e, err := RunWorkers(c, 0)
		if err != nil {
			t.Fatalf("RunWorkers: %v", err)
		}
		bridges := fault.Bridges(c)
		tsets := e.BridgeTSets(bridges)
		for i, g := range bridges {
			want := oracle.BridgeTSet(c, g)
			if !tsets[i].Equal(want) {
				t.Fatalf("trial %d bridge %s: streamed %s, oracle %s", trial, g.Name(c), tsets[i], want)
			}
		}
	}
}

func TestKnownTSets(t *testing.T) {
	// In testCircuit: g12 = NAND(i3,i4). Fault i3/0 (on the branch feeding
	// g12... the stem i3 fans out). Check a stem fault instead: output g11
	// stuck-at-0 is detected wherever g11=1.
	c := testCircuit(t)
	e, err := RunWorkers(c, 0)
	if err != nil {
		t.Fatalf("RunWorkers: %v", err)
	}
	g11, _ := c.NodeByName("g11")
	// g11 may fan out only to the output (no branches), so its prop mask is
	// the full space and T(g11/0) = ON-set of f.
	fs := []fault.StuckAt{{Node: g11.ID, Value: false}, {Node: g11.ID, Value: true}}
	ts := e.StuckAtTSets(fs)
	for v := 0; v < 16; v++ {
		i1 := circuit.VectorBit(uint64(v), 0, 4)
		i2 := circuit.VectorBit(uint64(v), 1, 4)
		i3 := circuit.VectorBit(uint64(v), 2, 4)
		i4 := circuit.VectorBit(uint64(v), 3, 4)
		on := (i1 && i2) || (i2 && i3 && i4)
		if ts[0].Contains(v) != on {
			t.Fatalf("T(g11/0) wrong at %d", v)
		}
		if ts[1].Contains(v) != !on {
			t.Fatalf("T(g11/1) wrong at %d", v)
		}
	}
}

// TestPropMaskOfUnobservableNode: a node that reaches no output has an
// empty flip-propagation mask. The mask of a line is T(l/0) ∪ T(l/1), so
// both of its stuck-at T-sets must be empty.
func TestPropMaskOfUnobservableNode(t *testing.T) {
	b := circuit.NewBuilder("dangling")
	b.Input("a")
	b.Input("c")
	b.Gate(circuit.And, "used", "a", "c")
	b.Gate(circuit.Or, "unused", "a", "c")
	b.Output("used")
	c, err := b.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	e, err := RunWorkers(c, 0)
	if err != nil {
		t.Fatalf("RunWorkers: %v", err)
	}
	un, _ := c.NodeByName("unused")
	for _, ts := range e.StuckAtTSets([]fault.StuckAt{{Node: un.ID, Value: false}, {Node: un.ID, Value: true}}) {
		if !ts.IsEmpty() {
			t.Fatalf("unobservable node has a non-empty stuck-at T-set %s", ts)
		}
	}
}

// ---- Engine acceptance tests -------------------------------------------
//
// `go test -run Engine -v` exercises the streaming-kernel contract: both
// compiled evaluators agree with independent oracles, the streaming path
// materializes no per-node universe bitsets, circuits wider than the old
// 24-input ceiling pass, and result memory is bounded by MemoryBudget.

// TestEngineModesAgreeRandom is the fuzz cross-check harness: random
// circuits run through the compiled word-block and dual-rail modes,
// asserting exact agreement with oracles that share no code with the
// engine (package oracle for two-valued detection, the Kleene simulator in
// oracle_test.go for three-valued).
func TestEngineModesAgreeRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 25; trial++ {
		c := randomCircuit(t, rng, 3+rng.Intn(6), 5+rng.Intn(25))
		e, err := RunWorkers(c, 1+rng.Intn(4))
		if err != nil {
			t.Fatalf("trial %d RunWorkers: %v", trial, err)
		}
		faults := fault.AllStuckAt(c)
		word := e.StuckAtTSets(faults) // word-block streaming
		compiled := CompileCircuit(c)

		for fi, f := range faults {
			if want := oracle.StuckAtTSet(c, f); !word[fi].Equal(want) {
				t.Fatalf("trial %d fault %s: word-block %s, oracle %s",
					trial, f.Name(c), word[fi], want)
			}
			// Dual-rail mode on fully specified patterns must agree with
			// T-set membership vector by vector.
			fc := compiled.NewFaultCone(f.Node)
			for base := 0; base < c.VectorSpaceSize(); base += 64 {
				var patterns [][]TV
				for v := base; v < c.VectorSpaceSize() && v < base+64; v++ {
					patterns = append(patterns, FullTest(uint64(v), c.NumInputs()))
				}
				for j, det := range fc.DetectsTVBatch(patterns, f.Value) {
					if det != word[fi].Contains(base+j) {
						t.Fatalf("trial %d fault %s v=%d: dual-rail %v, T-set %v",
							trial, f.Name(c), base+j, det, word[fi].Contains(base+j))
					}
				}
			}
		}

		if len(faults) > 0 {
			f := faults[rng.Intn(len(faults))]
			fc := compiled.NewFaultCone(f.Node)
			for iter := 0; iter < 20; iter++ {
				ti := uint64(rng.Intn(c.VectorSpaceSize()))
				tj := uint64(rng.Intn(c.VectorSpaceSize()))
				p := CommonTest(ti, tj, c.NumInputs())
				if got, want := fc.DetectsTV(p, f.Value), DetectsTV(c, p, f); got != want {
					t.Fatalf("trial %d fault %s t_%d,%d: dual-rail %v, reference %v",
						trial, f.Name(c), ti, tj, got, want)
				}
			}
		}
	}
}

// TestEngineStreamingAllocatesNoUniverse pins the memory contract of the
// tentpole: T-set construction over a 2^20-vector universe must allocate
// only the per-fault result bitsets plus block-sized scratch — far less
// than one per-node universe bitset per node (the old sim.Run allocated
// NumNodes of them before any T-set work started).
func TestEngineStreamingAllocatesNoUniverse(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	c := randomCircuit(t, rng, 20, 40)
	e, err := RunWorkers(c, 1)
	if err != nil {
		t.Fatalf("RunWorkers: %v", err)
	}
	faults := fault.AllStuckAt(c)[:2]

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	tsets := e.StuckAtTSets(faults)
	runtime.ReadMemStats(&after)
	if len(tsets) != 2 || tsets[0].Size() != c.VectorSpaceSize() {
		t.Fatal("unexpected T-set shape")
	}

	allocated := int64(after.TotalAlloc - before.TotalAlloc)
	universeBytes := int64(c.VectorSpaceSize() / 8)
	// Budget: well under one materialized per-node pass, which would need
	// NumNodes × universeBytes before any T-set work began. The bound is
	// relative (a third of that) rather than results+scratch because
	// sync.Pool deliberately drops items under the race detector, inflating
	// scratch reallocation.
	budget := int64(c.NumNodes()) * universeBytes / 3
	if allocated > budget {
		t.Fatalf("streaming T-sets allocated %d bytes, budget %d (universe bitset = %d bytes, %d nodes)",
			allocated, budget, universeBytes, c.NumNodes())
	}
	t.Logf("streaming allocated %d bytes for 2 T-sets over 2^20 vectors (one per-node universe pass would be ≥ %d bytes)",
		allocated, int64(c.NumNodes())*universeBytes)
}

// TestEngineWideCircuit runs a 28-input circuit through the streaming path
// — the old materializing implementation refused anything over 24 inputs.
// The circuit is AND(OR(x0..x13), OR(x14..x27)), whose T-sets have closed
// forms: the root's stuck-at-0 set is the ON-set of size (2^14 − 1)^2.
func TestEngineWideCircuit(t *testing.T) {
	b := circuit.NewBuilder("wide28")
	half := make([][]string, 2)
	for i := 0; i < 28; i++ {
		n := "x" + strconv.Itoa(i)
		b.Input(n)
		half[i/14] = append(half[i/14], n)
	}
	b.Gate(circuit.Or, "l", half[0]...)
	b.Gate(circuit.Or, "r", half[1]...)
	b.Gate(circuit.And, "root", "l", "r")
	b.Output("root")
	c, err := b.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	if c.NumInputs() != 28 {
		t.Fatalf("inputs = %d", c.NumInputs())
	}

	e, err := RunWorkers(c, 0)
	if err != nil {
		t.Fatalf("RunWorkers refused a 28-input circuit: %v", err)
	}
	root, _ := c.NodeByName("root")
	ts := e.StuckAtTSets([]fault.StuckAt{
		{Node: root.ID, Value: false},
		{Node: root.ID, Value: true},
	})

	on := (1<<14 - 1) * (1<<14 - 1)
	if got := ts[0].Count(); got != on {
		t.Fatalf("|T(root/0)| = %d, want %d", got, on)
	}
	if got := ts[1].Count(); got != c.VectorSpaceSize()-on {
		t.Fatalf("|T(root/1)| = %d, want %d", got, c.VectorSpaceSize()-on)
	}
	all := c.VectorSpaceSize() - 1
	if !ts[0].Contains(all) || ts[0].Contains(0) || !ts[1].Contains(0) {
		t.Fatal("T-set membership wrong at the corner vectors")
	}
}

// TestEngineBudgetCheck pins the explicit memory-budget guard that made
// raising MaxInputs safe, including requests whose byte count does not fit
// in an int64: 2^56 indices (the transition model's pair space at 28
// inputs) times 1024 or 4096 sets must be refused, not wrapped into a pass.
func TestEngineBudgetCheck(t *testing.T) {
	old := MemoryBudget
	defer func() { MemoryBudget = old }()
	MemoryBudget = 1 << 20 // 1 MiB: a 2^20-index set is 128 KiB
	for _, tc := range []struct {
		space int64
		sets  int
		fits  bool
	}{
		{1 << 20, 0, true},
		{1 << 20, 4, true},
		{1 << 20, 8, true}, // exactly the budget
		{1 << 20, 9, false},
		{1 << 20, 100, false},
		{1 << 56, 1, false},
		{1 << 56, 1024, false}, // 2^63 bytes: wraps to MinInt64 when multiplied
		{1 << 56, 4096, false}, // 2^65 bytes: wraps to 0 when multiplied
	} {
		err := CheckSpaceBudget("x", tc.space, tc.sets)
		if (err == nil) != tc.fits {
			t.Errorf("CheckSpaceBudget(space %d, %d sets) = %v, want fits=%v", tc.space, tc.sets, err, tc.fits)
		}
	}

	rng := rand.New(rand.NewSource(21))
	c := randomCircuit(t, rng, 20, 10)
	if err := CheckResultBudget(c, 4); err != nil {
		t.Fatalf("4 sets × 128 KiB must fit a 1 MiB budget: %v", err)
	}
	if err := CheckResultBudget(c, 100); err == nil {
		t.Fatal("100 sets × 128 KiB passed a 1 MiB budget")
	}
}

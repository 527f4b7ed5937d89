package engine

import (
	"math/rand"
	"strconv"
	"testing"

	"ndetect/internal/circuit"
	"ndetect/internal/oracle"
)

// randomCircuit builds a random normalized DAG circuit (the same shape the
// sim package fuzzes with).
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
			nf := 2 + rng.Intn(4) // up to 5 fanins: exercises long chains
			perm := rng.Perm(len(names))
			fins := make([]string, 0, nf)
			for _, p := range perm[:min(nf, len(perm))] {
				fins = append(fins, names[p])
			}
			b.Gate(kind, n, fins...)
		}
		names = append(names, n)
	}
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

// TestWordBlocksMatchScalar: the word-block interpreter, at random block
// widths, agrees with the scalar reference circuit.Eval at every node and
// vector.
func TestWordBlocksMatchScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 15; trial++ {
		c := randomCircuit(t, rng, 7+rng.Intn(4), 10+rng.Intn(20))
		p := CompileAll(c)
		size := c.VectorSpaceSize()
		nWords := (size + 63) / 64
		blockWords := 1 + rng.Intn(5)
		x := NewExec(p, blockWords)
		for lo := 0; lo < nWords; lo += blockWords {
			hi := min(lo+blockWords, nWords)
			x.Eval(lo, hi)
			for w := 0; w < hi-lo; w++ {
				for b := 0; b < 64; b++ {
					v := (lo+w)*64 + b
					if v >= size {
						break
					}
					want := c.Eval(uint64(v))
					for id := range c.Nodes {
						got := x.Node(id)[w]&(1<<uint(b)) != 0
						if got != want[id] {
							t.Fatalf("trial %d node %d v=%d: word %v, circuit.Eval %v", trial, id, v, got, want[id])
						}
					}
				}
			}
		}
	}
}

// TestDeadLogicElimination: cone logic that reaches no output is never
// compiled. Line a fans out to an observed gate and to a gate no output
// reads; a's cone allocates registers for the site and the observed path
// only.
func TestDeadLogicElimination(t *testing.T) {
	b := circuit.NewBuilder("dead")
	b.Input("a")
	b.Input("b")
	b.Gate(circuit.And, "live", "a", "b")
	b.Gate(circuit.Xor, "dead", "a", "b")
	b.Output("live")
	c, err := b.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	a, _ := c.NodeByName("a")
	dead, _ := c.NodeByName("dead")
	fanout := c.TransitiveFanout(a.ID)
	observed := c.TransitiveFanin(c.Outputs[0])
	if !fanout[dead.ID] || observed[dead.ID] {
		t.Fatal("test circuit: dead must be in a's fanout cone and unobserved")
	}
	live := 0 // cone nodes besides the site that reach the output
	for id := range c.Nodes {
		if id != a.ID && fanout[id] && observed[id] {
			live++
		}
	}
	cc := CompileAll(c).NewConeCompiler()
	cc.SetFusion(false)
	if cp := cc.Compile([]int{a.ID}); cp.NumRegs != 1+live {
		t.Fatalf("cone of a has %d registers, want %d (site + observed path)", cp.NumRegs, 1+live)
	}
}

// TestConeMatchesFullFlip: replaying a line's compiled cone against a good
// block must reproduce exactly the outputs of a full re-evaluation with the
// line forced to its complement, as computed by the independent oracle.
func TestConeMatchesFullFlip(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 15; trial++ {
		c := randomCircuit(t, rng, 4+rng.Intn(4), 8+rng.Intn(20))
		p := CompileAll(c)
		nWords := (c.VectorSpaceSize() + 63) / 64
		x := NewExec(p, nWords)
		x.Eval(0, nWords)
		cx := NewConeExec(nWords)
		good := make([][]bool, c.VectorSpaceSize())
		for v := range good {
			good[v] = c.Eval(uint64(v))
		}
		for site := 0; site < c.NumNodes(); site++ {
			cp := p.NewConeCompiler().Compile([]int{site})
			prop := make([]uint64, nWords)
			cx.PropInto(cp, x, prop)
			for v := 0; v < c.VectorSpaceSize(); v++ {
				bad := oracle.EvalForced(c, uint64(v), map[int]bool{site: !good[v][site]})
				want := oracle.Detects(c, good[v], bad)
				if got := prop[v/64]&(1<<uint(v%64)) != 0; got != want {
					t.Fatalf("trial %d site %d v=%d: cone prop %v, forced reference %v",
						trial, site, v, got, want)
				}
			}
		}
	}
}

// TestExecTVDefinitePatterns: on fully definite rails the dual-rail
// interpreter must agree with the scalar reference circuit.Eval at every
// node.
func TestExecTVDefinitePatterns(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 15; trial++ {
		c := randomCircuit(t, rng, 4+rng.Intn(3), 8+rng.Intn(20))
		p := CompileAll(c)
		n := p.NumRegs
		p1 := make([]uint64, n)
		p0 := make([]uint64, n)
		size := c.VectorSpaceSize()
		k := min(64, size)
		m := c.NumInputs()
		for i, id := range c.Inputs {
			var r1, r0 uint64
			for j := 0; j < k; j++ {
				if circuit.VectorBit(uint64(j), i, m) {
					r1 |= 1 << uint(j)
				} else {
					r0 |= 1 << uint(j)
				}
			}
			p1[id], p0[id] = r1, r0
		}
		p.ExecTV(c.TopoOrder(), p1, p0)
		for j := 0; j < k; j++ {
			want := c.Eval(uint64(j))
			for id := range c.Nodes {
				d1 := p1[id]&(1<<uint(j)) != 0
				d0 := p0[id]&(1<<uint(j)) != 0
				if d1 == d0 {
					t.Fatalf("trial %d node %d pattern %d: definite input gave X or contradiction", trial, id, j)
				}
				if d1 != want[id] {
					t.Fatalf("trial %d node %d pattern %d: dual-rail %v, circuit.Eval %v", trial, id, j, d1, want[id])
				}
			}
		}
	}
}

func TestAlternatingPatterns(t *testing.T) {
	for shift := uint(0); shift < 6; shift++ {
		pat := alternating(shift)
		for v := uint(0); v < 64; v++ {
			want := (v>>shift)&1 == 1
			if got := pat&(1<<v) != 0; got != want {
				t.Fatalf("alternating(%d) bit %d = %v, want %v", shift, v, got, want)
			}
		}
	}
}

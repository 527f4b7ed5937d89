package sim

import (
	"fmt"

	"ndetect/internal/circuit"
	"ndetect/internal/fault"
)

// The scalar Kleene simulator: the independent 3-valued oracle that the
// compiled dual-rail path (FaultCone, engine.ExecTV) is cross-checked
// against. It walks the netlist directly, one pattern at a time, and
// shares no code with the engine.

func tvNot(a TV) TV {
	switch a {
	case Zero:
		return One
	case One:
		return Zero
	}
	return X
}

func tvAnd(a, b TV) TV {
	if a == Zero || b == Zero {
		return Zero
	}
	if a == One && b == One {
		return One
	}
	return X
}

func tvOr(a, b TV) TV {
	if a == One || b == One {
		return One
	}
	if a == Zero && b == Zero {
		return Zero
	}
	return X
}

func tvXor(a, b TV) TV {
	if a == X || b == X {
		return X
	}
	if a == b {
		return Zero
	}
	return One
}

// FullTest renders a fully specified vector as a TV pattern.
func FullTest(t uint64, numInputs int) []TV {
	p := make([]TV, numInputs)
	for i := 0; i < numInputs; i++ {
		if circuit.VectorBit(t, i, numInputs) {
			p[i] = One
		} else {
			p[i] = Zero
		}
	}
	return p
}

// SimulateTV runs 3-valued simulation of the pattern (indexed by input
// position) with an optional stuck-at fault injected: if faultNode ≥ 0 that
// node is forced to faultVal. It returns all node values.
func SimulateTV(c *circuit.Circuit, pattern []TV, faultNode int, faultVal TV) []TV {
	if len(pattern) != c.NumInputs() {
		panic(fmt.Sprintf("sim: pattern length %d, want %d", len(pattern), c.NumInputs()))
	}
	vals := make([]TV, c.NumNodes())
	for i, id := range c.Inputs {
		vals[id] = pattern[i]
	}
	// A fault on an input node is handled like any other: inputs appear in
	// TopoOrder, so the override below applies uniformly.
	for _, id := range c.TopoOrder() {
		if id == faultNode {
			vals[id] = faultVal
			continue
		}
		n := c.Node(id)
		switch n.Kind {
		case circuit.Input:
			// assigned above
		case circuit.Const0:
			vals[id] = Zero
		case circuit.Const1:
			vals[id] = One
		case circuit.Buf, circuit.Branch:
			vals[id] = vals[n.Fanin[0]]
		case circuit.Not:
			vals[id] = tvNot(vals[n.Fanin[0]])
		case circuit.And, circuit.Nand:
			v := One
			for _, f := range n.Fanin {
				v = tvAnd(v, vals[f])
			}
			if n.Kind == circuit.Nand {
				v = tvNot(v)
			}
			vals[id] = v
		case circuit.Or, circuit.Nor:
			v := Zero
			for _, f := range n.Fanin {
				v = tvOr(v, vals[f])
			}
			if n.Kind == circuit.Nor {
				v = tvNot(v)
			}
			vals[id] = v
		case circuit.Xor, circuit.Xnor:
			v := Zero
			for _, f := range n.Fanin {
				v = tvXor(v, vals[f])
			}
			if n.Kind == circuit.Xnor {
				v = tvNot(v)
			}
			vals[id] = v
		}
	}
	return vals
}

// DetectsTV reports whether the (possibly partial) pattern detects the
// stuck-at fault under 3-valued simulation: some primary output must take
// definite, differing values in the good and faulty circuits. This is the
// check Definition 2 performs on t_ij: conservative in the usual 3-valued
// sense (an X at an output never counts as a detection).
func DetectsTV(c *circuit.Circuit, pattern []TV, f fault.StuckAt) bool {
	good := SimulateTV(c, pattern, -1, X)
	fv := Zero
	if f.Value {
		fv = One
	}
	// Activation in the 3-valued sense: if the good value at the fault site
	// equals the stuck value the fault is definitely not excited; if it is
	// X the faulty-machine output difference check below still applies
	// (both simulations run; an output difference requires definite values,
	// which cannot happen without definite excitation on some path).
	bad := SimulateTV(c, pattern, f.Node, fv)
	for _, o := range c.Outputs {
		if good[o] != X && bad[o] != X && good[o] != bad[o] {
			return true
		}
	}
	return false
}

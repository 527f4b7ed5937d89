// Package oracle is the independent two-valued reference for faulty
// machines: a direct netlist walk over circuit nodes that shares no code
// with the compiled engine, so the engine's compiler, fuser and word-block
// interpreters can be cross-checked against it. It is imported only from
// _test.go files (TestOracleNotImportedByProduction enforces this); the
// good machine's reference is circuit.Eval.
package oracle

import (
	"ndetect/internal/bitset"
	"ndetect/internal/circuit"
	"ndetect/internal/fault"
)

// EvalForced is circuit.Eval with the nodes in forced overridden to their
// stuck values, so masking between several sites plays out exactly as in
// the real faulty machine.
func EvalForced(c *circuit.Circuit, vector uint64, forced map[int]bool) []bool {
	vals := make([]bool, c.NumNodes())
	for i, id := range c.Inputs {
		vals[id] = circuit.VectorBit(vector, i, c.NumInputs())
	}
	for _, id := range c.TopoOrder() {
		if fv, ok := forced[id]; ok {
			vals[id] = fv
			continue
		}
		n := c.Node(id)
		switch n.Kind {
		case circuit.Input:
			// set above
		case circuit.Const0:
			vals[id] = false
		case circuit.Const1:
			vals[id] = true
		case circuit.Buf, circuit.Branch:
			vals[id] = vals[n.Fanin[0]]
		case circuit.Not:
			vals[id] = !vals[n.Fanin[0]]
		case circuit.And, circuit.Nand:
			v := true
			for _, f := range n.Fanin {
				v = v && vals[f]
			}
			vals[id] = v != (n.Kind == circuit.Nand)
		case circuit.Or, circuit.Nor:
			v := false
			for _, f := range n.Fanin {
				v = v || vals[f]
			}
			vals[id] = v != (n.Kind == circuit.Nor)
		case circuit.Xor, circuit.Xnor:
			v := false
			for _, f := range n.Fanin {
				v = v != vals[f]
			}
			vals[id] = v != (n.Kind == circuit.Xnor)
		}
	}
	return vals
}

// Detects reports whether some primary output differs between the good
// and faulty node values.
func Detects(c *circuit.Circuit, good, bad []bool) bool {
	for _, o := range c.Outputs {
		if good[o] != bad[o] {
			return true
		}
	}
	return false
}

// StuckAtTSet computes T(f) vector by vector: v detects f iff forcing the
// fault node to its stuck value changes some primary output.
func StuckAtTSet(c *circuit.Circuit, f fault.StuckAt) *bitset.Set {
	t := bitset.New(c.VectorSpaceSize())
	forced := map[int]bool{f.Node: f.Value}
	for v := 0; v < c.VectorSpaceSize(); v++ {
		if Detects(c, c.Eval(uint64(v)), EvalForced(c, uint64(v), forced)) {
			t.Add(v)
		}
	}
	return t
}

// BridgeTSet computes T(g) for a dominance bridge vector by vector: v
// detects g iff the dominant line carries g.Value, the victim the opposite
// value, and forcing the victim to g.Value changes some primary output.
func BridgeTSet(c *circuit.Circuit, g fault.Bridge) *bitset.Set {
	t := bitset.New(c.VectorSpaceSize())
	forced := map[int]bool{g.Victim: g.Value}
	for v := 0; v < c.VectorSpaceSize(); v++ {
		good := c.Eval(uint64(v))
		if good[g.Dominant] != g.Value || good[g.Victim] == g.Value {
			continue // not activated
		}
		if Detects(c, good, EvalForced(c, uint64(v), forced)) {
			t.Add(v)
		}
	}
	return t
}

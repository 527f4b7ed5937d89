package oracle

import (
	"os/exec"
	"strings"
	"testing"

	"ndetect/internal/circuit"
	"ndetect/internal/fault"
)

const importPath = "ndetect/internal/oracle"

// TestOracleNotImportedByProduction keeps test-only code out of
// production: no non-test package of the module may depend on this
// package, directly or transitively. `go list` reports each package's
// non-test dependency closure, so imports from _test.go files (the only
// intended users) do not count.
func TestOracleNotImportedByProduction(t *testing.T) {
	cmd := exec.Command("go", "list", "-f", `{{.ImportPath}}{{range .Deps}} {{.}}{{end}}`, "./...")
	cmd.Dir = "../.."
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("go list: %v", err)
	}
	seen := false
	for _, line := range strings.Split(strings.TrimSpace(string(out)), "\n") {
		fields := strings.Fields(line)
		if fields[0] == importPath {
			seen = true
			continue
		}
		for _, dep := range fields[1:] {
			if dep == importPath {
				t.Errorf("production package %s depends on %s", fields[0], importPath)
			}
		}
	}
	if !seen {
		t.Fatalf("go list ./... did not report %s; the guard is not looking at this module", importPath)
	}
}

// TestOracleEvalForcedMatchesEval: with nothing forced the reference is the
// good machine, and forcing a node overrides it while its fanin is left
// untouched.
func TestOracleEvalForcedMatchesEval(t *testing.T) {
	c, err := circuit.EmbeddedBench("c17")
	if err != nil {
		t.Fatal(err)
	}
	out := c.Outputs[0]
	for v := 0; v < c.VectorSpaceSize(); v++ {
		want := c.Eval(uint64(v))
		got := EvalForced(c, uint64(v), nil)
		for id := range want {
			if got[id] != want[id] {
				t.Fatalf("v=%d node %d: unforced %v, circuit.Eval %v", v, id, got[id], want[id])
			}
		}
		bad := EvalForced(c, uint64(v), map[int]bool{out: !want[out]})
		if bad[out] == want[out] || !Detects(c, want, bad) {
			t.Fatalf("v=%d: forcing output %d to its complement was not observed", v, out)
		}
	}
}

// TestOracleKnownTSets pins the reference on a gate with closed-form
// detection sets: for o = AND(a, b), T(o/0) is the ON-set {11}, T(a/1) is
// {01}, and the bridge "a dominates b at 1" is detected exactly at 10 —
// the one vector where a = 1, b = 0 and the AND output depends on b.
func TestOracleKnownTSets(t *testing.T) {
	b := circuit.NewBuilder("and2")
	b.Input("a")
	b.Input("b")
	b.Gate(circuit.And, "o", "a", "b")
	b.Output("o")
	c, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	id := func(name string) int {
		n, _ := c.NodeByName(name)
		return n.ID
	}
	for _, tc := range []struct {
		name string
		got  string
		want string
	}{
		{"o/0", StuckAtTSet(c, fault.StuckAt{Node: id("o"), Value: false}).String(), "{3}"},
		{"a/1", StuckAtTSet(c, fault.StuckAt{Node: id("a"), Value: true}).String(), "{1}"},
		{"(a,1,b,0)", BridgeTSet(c, fault.Bridge{Dominant: id("a"), Victim: id("b"), Value: true}).String(), "{2}"},
	} {
		if tc.got != tc.want {
			t.Errorf("T(%s) = %s, want %s", tc.name, tc.got, tc.want)
		}
	}
}

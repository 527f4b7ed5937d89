package main

import (
	"bytes"
	"flag"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"ndetect/internal/circuit"
	"ndetect/internal/exp"
	"ndetect/internal/report"
)

var updateGolden = flag.Bool("update", false, "rewrite the text-report golden files in testdata/")

// textReport analyzes c with req and renders the text report.
func textReport(t *testing.T, c *circuit.Circuit, req exp.AnalysisRequest, worst, hist int) (*report.Analysis, string) {
	t.Helper()
	doc, err := exp.AnalyzeCircuit(c, req)
	if err != nil {
		t.Fatal(err)
	}
	var b bytes.Buffer
	if err := writeText(&b, doc, worst, hist); err != nil {
		t.Fatal(err)
	}
	return doc, b.String()
}

func mustLoad(t *testing.T, name string) *circuit.Circuit {
	t.Helper()
	c, err := loadCircuit(name, "", "", "", false)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// The text report of each mode is pinned byte for byte. Regenerate with
// `go test ./cmd/ndetect -update`.
func TestTextReportGolden(t *testing.T) {
	cases := []struct {
		golden, bench string
		req           exp.AnalysisRequest
		hist          int
	}{
		{"c17_hist1.txt", "c17", exp.AnalysisRequest{Kind: exp.WorstCaseAnalysis}, 1},
		{"bbtas_avg.txt", "bbtas", exp.AnalysisRequest{Kind: exp.AverageAnalysis, NMax: 2, K: 50}, 0},
		{"bbtas_msa2.txt", "bbtas", exp.AnalysisRequest{Kind: exp.WorstCaseAnalysis, FaultModel: "msa2"}, 0},
		{"w64_partition16.txt", "w64", exp.AnalysisRequest{Kind: exp.PartitionedAnalysis, MaxInputs: 16}, 0},
	}
	for _, tc := range cases {
		t.Run(tc.golden, func(t *testing.T) {
			_, got := textReport(t, mustLoad(t, tc.bench), tc.req, 10, tc.hist)
			path := filepath.Join("testdata", tc.golden)
			if *updateGolden {
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("%v (regenerate with -update)", err)
			}
			if got != string(want) {
				t.Errorf("text report differs from %s (regenerate with -update)\ngot:\n%s", path, got)
			}
		})
	}
}

// The text report depends on the circuit, not on the order its gate
// statements were written in: the report renders the document of the
// canonical circuit. bbtas is written out as a .bench netlist (the format
// that allows forward references) and parsed back, once as written and
// once with its gate statements shuffled.
func TestTextReportIgnoresStatementOrder(t *testing.T) {
	var decls, gates []string
	for _, l := range strings.Split(strings.TrimSpace(mustLoad(t, "bbtas").WriteString()), "\n") {
		f := strings.Fields(l)
		switch f[0] {
		case "input", "output":
			for _, sig := range f[1:] {
				decls = append(decls, strings.ToUpper(f[0])+"("+sig+")")
			}
		case "gate":
			gates = append(gates, f[2]+" = "+strings.ToUpper(f[1])+"("+strings.Join(f[3:], ", ")+")")
		case "circuit":
		default:
			t.Fatalf("no .bench form for netlist statement %q", l)
		}
	}
	asWritten, err := circuit.ParseBenchString("bbtas", strings.Join(append(decls, gates...), "\n"))
	if err != nil {
		t.Fatal(err)
	}
	rand.New(rand.NewSource(1)).Shuffle(len(gates), func(i, j int) { gates[i], gates[j] = gates[j], gates[i] })
	reordered, err := circuit.ParseBenchString("bbtas", strings.Join(append(decls, gates...), "\n"))
	if err != nil {
		t.Fatal(err)
	}
	if asWritten.WriteString() == reordered.WriteString() {
		t.Fatal("shuffling the gate statements did not change the parsed node order")
	}

	req := exp.AnalysisRequest{Kind: exp.AverageAnalysis, NMax: 2, K: 50, Workers: 1}
	doc, want := textReport(t, asWritten, req, 10, 0)
	if doc.Average.Faults == 0 {
		t.Fatal("Procedure 1 subset is empty; the average-case section is not exercised")
	}
	if _, got := textReport(t, reordered, req, 10, 0); got != want {
		t.Errorf("text reports differ with statement order\nas written:\n%s\nreordered:\n%s", want, got)
	}
}

// The hardest list puts unbounded faults first, then nmin descending,
// keeps document order among ties, and clamps -worst to |G|.
func TestHardestOrdering(t *testing.T) {
	faults := []report.FaultNMin{
		{Name: "a", NMin: 3}, {Name: "b", NMin: report.UnboundedJSON}, {Name: "c", NMin: 5},
		{Name: "d", NMin: 3}, {Name: "e", NMin: report.UnboundedJSON}, {Name: "f", NMin: 5},
	}
	var b bytes.Buffer
	writeHardest(&b, "untargeted", faults, 100)
	var got []string
	for _, l := range strings.Split(strings.TrimSpace(b.String()), "\n")[1:] {
		f := strings.Fields(l)
		got = append(got, f[0]+"="+f[len(f)-1])
	}
	want := "b=∞ e=∞ c=5 f=5 a=3 d=3"
	if strings.Join(got, " ") != want {
		t.Errorf("order = %v, want %s", got, want)
	}
	if first := strings.SplitN(b.String(), "\n", 2)[0]; first != "hardest 6 untargeted faults:" {
		t.Errorf("header = %q, want the count clamped to 6", first)
	}
	if faults[1].Name != "b" {
		t.Error("writeHardest reordered its input")
	}
}

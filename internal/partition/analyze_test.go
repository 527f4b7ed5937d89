package partition

import (
	"fmt"
	"testing"

	"ndetect/internal/bench"
	"ndetect/internal/circuit"
	"ndetect/internal/fault"
	"ndetect/internal/ndetect"
)

// TestAnalyzePartsExactOnFullPart is the pipeline's soundness anchor: when
// the input limit admits the whole circuit, Split produces a single part
// containing every cone, and the partitioned pipeline must then agree with
// the full-circuit analysis on every bridge — same fault set, same nmin.
// (Every bridge is "visible inside a single part" here; the round trip
// through Extract → Builder → renormalization must not perturb anything.)
// For tighter limits the per-part values are approximations — each part
// sees a projection of the input space, so vector multiplicities scale —
// which is why no cross-size numeric equality is asserted; see DESIGN.md §8.
func TestAnalyzePartsExactOnFullPart(t *testing.T) {
	for _, name := range []string{"lion", "train4", "dk27", "mc", "bbara"} {
		b, ok := bench.ByName(name)
		if !ok {
			t.Fatalf("unknown benchmark %q", name)
		}
		r, err := b.SynthesizeDefault()
		if err != nil {
			t.Fatalf("%s: Synthesize: %v", name, err)
		}
		c := r.Circuit

		u, err := ndetect.BuildUniverse(c, fault.Default(), ndetect.AnalyzeOptions{})
		if err != nil {
			t.Fatalf("%s: BuildUniverse: %v", name, err)
		}
		wc := ndetect.WorstCase(&u.Universe)
		want := make(map[string]int, len(u.Untargeted))
		for j, g := range u.Untargeted {
			want[g.Name] = wc.NMin[j]
		}

		res, err := AnalyzeParts(c, Options{MaxInputs: c.NumInputs()}, 0)
		if err != nil {
			t.Fatalf("%s: AnalyzeParts: %v", name, err)
		}
		if len(res.Parts) != 1 {
			t.Fatalf("%s: limit %d produced %d parts, want 1", name, c.NumInputs(), len(res.Parts))
		}
		if len(res.Merged) != len(want) {
			t.Fatalf("%s: merged has %d bridges, full analysis %d", name, len(res.Merged), len(want))
		}
		for g, nm := range want {
			got, ok := res.Merged[g]
			if !ok {
				t.Fatalf("%s: bridge %s missing from partitioned result", name, g)
			}
			if got != nm {
				t.Fatalf("%s: bridge %s: partitioned nmin = %d, full = %d", name, g, got, nm)
			}
		}
	}
}

// TestAnalyzePartsWorkersDeterministic mirrors exp.TestRunAllWorkersDeterministic
// for the partitioned pipeline: the Workers knob must not change any output —
// same parts in the same order, same per-part maps, same merge.
func TestAnalyzePartsWorkersDeterministic(t *testing.T) {
	c, err := circuit.EmbeddedBench("w64")
	if err != nil {
		t.Fatalf("EmbeddedBench(w64): %v", err)
	}
	render := func(r *AnalysisResult) string {
		s := fmt.Sprintf("circuit=%s maxin=%d merged=%v\n", r.Circuit, r.MaxInputs, r.Merged)
		for i, a := range r.Parts {
			s += fmt.Sprintf("part %d outputs=%v support=%v stats=%v targets=%d/%d nmin=%v\n",
				i, a.Part.Outputs, a.Part.Support, a.Stats, a.DetectableTargets, a.Targets, a.NMin)
		}
		return s
	}

	serial, err := AnalyzeParts(c, Options{MaxInputs: 16}, 1)
	if err != nil {
		t.Fatalf("AnalyzeParts workers=1: %v", err)
	}
	want := render(serial)
	for _, workers := range []int{2, 8, 0} {
		got, err := AnalyzeParts(c, Options{MaxInputs: 16}, workers)
		if err != nil {
			t.Fatalf("AnalyzeParts workers=%d: %v", workers, err)
		}
		if r := render(got); r != want {
			t.Fatalf("workers=%d output differs from serial:\n got %s\nwant %s", workers, r, want)
		}
	}
}

// TestAnalyzePartsMergeConsistency checks the assembled result's internal
// invariants on the wide sample: the merge is exactly MergeNMin over the
// per-part maps, every part fault appears merged, and every nmin is ≥ 1.
func TestAnalyzePartsMergeConsistency(t *testing.T) {
	c, err := circuit.EmbeddedBench("w64")
	if err != nil {
		t.Fatalf("EmbeddedBench(w64): %v", err)
	}
	res, err := AnalyzeParts(c, Options{MaxInputs: 16}, 0)
	if err != nil {
		t.Fatalf("AnalyzeParts: %v", err)
	}
	if len(res.Parts) < 2 {
		t.Fatalf("w64 at limit 16 produced %d parts, want several", len(res.Parts))
	}
	perPart := make([]map[string]int, len(res.Parts))
	for i, a := range res.Parts {
		perPart[i] = a.NMin
		if a.Untargeted != len(a.NMin) {
			t.Fatalf("part %d: Untargeted=%d but %d nmin entries", i, a.Untargeted, len(a.NMin))
		}
		for g, v := range a.NMin {
			if v < 1 {
				t.Fatalf("part %d: bridge %s has nmin %d < 1", i, g, v)
			}
			if _, ok := res.Merged[g]; !ok {
				t.Fatalf("part %d: bridge %s missing from merge", i, g)
			}
		}
	}
	want := MergeNMin(perPart)
	if fmt.Sprint(want) != fmt.Sprint(res.Merged) {
		t.Fatalf("Merged != MergeNMin(parts):\n got %v\nwant %v", res.Merged, want)
	}
	if names := res.MergedNames(); len(names) != len(res.Merged) {
		t.Fatalf("MergedNames lost entries: %d vs %d", len(names), len(res.Merged))
	}
}

// TestAnalyzePartsErrors: Split failures surface.
func TestAnalyzePartsErrors(t *testing.T) {
	c, err := circuit.EmbeddedBench("w64")
	if err != nil {
		t.Fatalf("EmbeddedBench(w64): %v", err)
	}
	if _, err := AnalyzeParts(c, Options{MaxInputs: 4}, 0); err == nil {
		t.Fatal("AnalyzeParts accepted a limit below the widest cone")
	}
}

package main

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"sort"

	"ndetect/internal/circuit"
	"ndetect/internal/fault"
	"ndetect/internal/ndetect"
	"ndetect/internal/report"
)

// writeText renders an analysis document as the human-readable report.
// Every number it prints is a field of doc, so the text report and the
// -json document of one run always agree. worst > 0 lists the hardest
// faults; hist > 0 appends the Figure 2 histogram of the worst case from
// that cutoff.
func writeText(w io.Writer, doc *report.Analysis, worst, hist int) error {
	bw := bufio.NewWriter(w)
	ci := doc.Circuit
	stats := circuit.Stats{
		Inputs: ci.Inputs, Outputs: ci.Outputs, Gates: ci.Gates, MultiInputGates: ci.MultiInputGates,
		Branches: ci.Branches, MaxLevel: ci.Depth, VectorSpaceSize: ci.VectorSpace,
	}
	fmt.Fprintf(bw, "circuit %s: %s\n", ci.Name, stats)

	if p := doc.Partitioned; p != nil {
		fmt.Fprintf(bw, "partitioned into %d output-cone parts (input limit %d):\n", len(p.Parts), p.MaxInputs)
		for i, a := range p.Parts {
			fmt.Fprintf(bw, "  part %d: outputs %v, %d inputs (|U| = %d), %d gates, |F| = %d (%d detectable), |G| = %d, coverage at n=10: %.2f%%\n",
				i, a.Outputs, a.Inputs, a.VectorSpace, a.Gates, a.Targets, a.DetectableTargets, a.Untargeted, a.CoverageAt10Pct)
		}
		fmt.Fprintf(bw, "\nmerged worst-case table over %d distinct bridging faults (per-part bounds, Section 4):\n", p.MergedFaults)
		for _, pt := range p.Coverage {
			fmt.Fprintf(bw, "  nmin(g) ≤ %-3d : %6.2f%% guaranteed by any %d-detection test set (within some part)\n", pt.N, pt.Pct, pt.N)
		}
		writeTail(bw, p.Tail)
		if p.Unbounded > 0 {
			fmt.Fprintf(bw, "  no guarantee   : %d faults (undetectable through every part that sees them)\n", p.Unbounded)
		}
		fmt.Fprintf(bw, "  largest finite nmin: %d\n", p.MaxFinite)
		if worst > 0 {
			fmt.Fprintln(bw)
			writeHardest(bw, "bridging", p.Merged, worst)
		}
		return bw.Flush()
	}

	wc := doc.WorstCase
	model, err := fault.Resolve(doc.Options.FaultModel)
	if err != nil {
		return err
	}
	if model.ID() != fault.DefaultModelID {
		// The default model's output predates the registry and stays byte
		// identical; non-default models announce themselves.
		fmt.Fprintf(bw, "fault model: %s\n", model.ID())
	}
	fmt.Fprintf(bw, "targets |F| = %d %s (%d detectable)\n",
		wc.Targets, model.Provider(fault.TargetSet).Label(), wc.DetectableTargets)
	fmt.Fprintf(bw, "untargeted |G| = %d %s\n\n", wc.Untargeted, model.Provider(fault.UntargetedSet).Label())

	fmt.Fprintln(bw, "worst-case analysis (Section 2):")
	for _, pt := range wc.Coverage {
		fmt.Fprintf(bw, "  nmin(g) ≤ %-3d : %6.2f%% of G guaranteed by any %d-detection test set\n", pt.N, pt.Pct, pt.N)
	}
	writeTail(bw, wc.Tail)
	if wc.Unbounded > 0 {
		fmt.Fprintf(bw, "  no guarantee   : %d faults (no target fault's tests overlap theirs)\n", wc.Unbounded)
	}
	fmt.Fprintf(bw, "  largest finite nmin: %d\n\n", wc.MaxFinite)

	if worst > 0 {
		writeHardest(bw, "untargeted", wc.NMin, worst)
		fmt.Fprintln(bw)
	}

	if hist > 0 {
		res := ndetect.WorstCaseResult{NMin: make([]int, len(wc.NMin))}
		for j, f := range wc.NMin {
			res.NMin[j] = f.NMin
			if f.NMin == report.UnboundedJSON {
				res.NMin[j] = ndetect.Unbounded
			}
		}
		values, counts := res.Histogram(hist)
		fmt.Fprintln(bw, report.FormatFigure2(ci.Name, hist, values, counts, wc.Unbounded))
	}

	if a := doc.Average; a != nil {
		nmax := doc.Options.NMax
		if a.Faults == 0 {
			fmt.Fprintf(bw, "average-case analysis: every untargeted fault is guaranteed at n ≤ %d; nothing to estimate\n", nmax)
			return bw.Flush()
		}
		fmt.Fprintf(bw, "average-case analysis (Definition %d, K=%d) over the %d faults with nmin > %d:\n",
			a.Definition, doc.Options.K, a.Faults, nmax)
		for _, th := range a.Thresholds {
			fmt.Fprintf(bw, "  p(%d,g) ≥ %.1f : %d faults\n", nmax, th.P, th.Count)
		}
		fmt.Fprintf(bw, "  lowest p(%d,g) = %.3f (%s)\n", nmax, a.MinP, a.MinPFault)
		fmt.Fprintf(bw, "  expected escapes from an arbitrary %d-detection test set: %.2f faults\n", nmax, a.ExpectedEscapes)
		fmt.Fprintf(bw, "  mean %d-detection test set size: %.1f vectors\n", nmax, a.MeanSetSize)
	}
	return bw.Flush()
}

func writeTail(w io.Writer, tail []report.TailPoint) {
	for _, pt := range tail {
		fmt.Fprintf(w, "  nmin(g) ≥ %-3d : %d faults (%.2f%%)\n", pt.N, pt.Count, pt.Pct)
	}
}

// writeHardest lists the n hardest of faults: unbounded first, then nmin
// descending, ties in document order.
func writeHardest(w io.Writer, kind string, faults []report.FaultNMin, n int) {
	hs := append([]report.FaultNMin(nil), faults...)
	rank := func(i int) int {
		if hs[i].NMin == report.UnboundedJSON {
			return math.MaxInt
		}
		return hs[i].NMin
	}
	sort.SliceStable(hs, func(a, b int) bool { return rank(a) > rank(b) })
	n = min(n, len(hs))
	fmt.Fprintf(w, "hardest %d %s faults:\n", n, kind)
	for _, h := range hs[:n] {
		nm := fmt.Sprint(h.NMin)
		if h.NMin == report.UnboundedJSON {
			nm = "∞"
		}
		fmt.Fprintf(w, "  %-28s nmin = %s\n", h.Name, nm)
	}
}

// ISCAS .bench frontend + partitioned pipeline: load a real-format
// benchmark circuit, run the paper's analysis where the input space allows
// it, and fall back to the Section 4 partitioned pipeline where it does
// not.
//
// c17 (5 inputs) is analysed exhaustively; w64 (64 inputs — |U| = 2^64
// vectors, far beyond any exhaustive pass) goes through
// AnalyzePartitioned: Split into ≤16-input output cones, per-part
// worst-case analysis in parallel, merged verdicts.
//
// Run with:
//
//	go run ./examples/iscas
package main

import (
	"fmt"
	"log"

	"ndetect"
)

func main() {
	// Small ISCAS circuit: the full exhaustive analysis applies.
	c17, err := ndetect.EmbeddedBenchCircuit("c17")
	if err != nil {
		log.Fatal(err)
	}
	u, err := ndetect.Analyze(c17, "", ndetect.AnalyzeOptions{})
	if err != nil {
		log.Fatal(err)
	}
	wc := ndetect.WorstCase(&u.Universe)
	fmt.Printf("c17: %s\n", c17.ComputeStats())
	fmt.Printf("  |F| = %d stuck-at targets, |G| = %d bridging faults\n", len(u.Targets), len(u.Untargeted))
	fmt.Printf("  every bridge guaranteed by any %d-detection test set\n\n", wc.MaxFinite())

	// Wide ISCAS-style circuit: exhaustive analysis is impossible (2^64
	// vectors), so partition into output cones and analyse per part.
	w64, err := ndetect.EmbeddedBenchCircuit("w64")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("w64: %s\n", w64.ComputeStats())
	if _, err := ndetect.Analyze(w64, "", ndetect.AnalyzeOptions{}); err != nil {
		fmt.Printf("  full analysis rejected as expected: %v\n", err)
	}

	res, err := ndetect.AnalyzePartitioned(w64, ndetect.PartitionOptions{MaxInputs: 16}, 0)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  partitioned into %d parts (input limit %d):\n", len(res.Parts), res.MaxInputs)
	for i, a := range res.Parts {
		fmt.Printf("    part %d: outputs %v, %d inputs, |G| = %d, coverage at n=10: %.2f%%\n",
			i, a.Part.Outputs, a.Stats.Inputs, a.Untargeted, 100*a.CoverageAt(10))
	}
	fmt.Printf("  merged: %d distinct bridging faults, %.2f%% guaranteed within some part at n ≤ 10\n",
		len(res.Merged), 100*res.MergedCoverageAt(10))
	fmt.Printf("  largest finite per-part nmin: %d\n", res.MergedMaxFinite())
	fmt.Println("\nnote: per-part guarantees are relative to each part's own input space and")
	fmt.Println("outputs — exact for the part, conservative for the whole (DESIGN.md §8).")
}

// Partitioned analysis: the paper's exhaustive method only works for
// circuits with few inputs; Section 4 suggests partitioning a larger design
// into subcircuits and analysing each. This example builds a 24-input
// circuit (too wide to enumerate directly at a reasonable cost), splits it
// into output cones, analyses every part, and merges the verdicts.
//
// Run with:
//
//	go run ./examples/partition
package main

import (
	"fmt"
	"log"

	"ndetect"
)

func main() {
	c := buildWide()
	fmt.Printf("circuit %s: %s\n", c.Name, c.ComputeStats())
	fmt.Printf("exhaustive analysis would need 2^%d = %d vectors — partitioning instead\n\n",
		c.NumInputs(), c.VectorSpaceSize())

	parts, err := ndetect.SplitCircuit(c, ndetect.PartitionOptions{MaxInputs: 10})
	if err != nil {
		log.Fatal(err)
	}

	var perPart []map[string]int
	for i, p := range parts {
		u, err := ndetect.Analyze(p.Circuit, "", ndetect.AnalyzeOptions{})
		if err != nil {
			log.Fatal(err)
		}
		wc := ndetect.WorstCase(&u.Universe)
		fmt.Printf("part %d: outputs %v, %d inputs (|U| = %d), |G| = %d, worst-case coverage at n=10: %.2f%%\n",
			i, p.Outputs, p.Circuit.NumInputs(), u.Size, len(u.Untargeted), 100*wc.CoverageAt(10))

		m := make(map[string]int, len(u.Untargeted))
		for j, g := range u.Untargeted {
			m[g.Name] = wc.NMin[j]
		}
		perPart = append(perPart, m)
	}

	merged := ndetect.MergePartNMin(perPart)
	hist := map[string]int{"n=1": 0, "2≤n≤10": 0, "n>10": 0}
	worstName, worstN := "", 0
	for name, v := range merged {
		switch {
		case v == 1:
			hist["n=1"]++
		case v <= 10:
			hist["2≤n≤10"]++
		default:
			hist["n>10"]++
		}
		if v != ndetect.Unbounded && v > worstN {
			worstName, worstN = name, v
		}
	}
	fmt.Printf("\nmerged over %d distinct bridging faults:\n", len(merged))
	fmt.Printf("  guaranteed by any 1-detection test set: %d\n", hist["n=1"])
	fmt.Printf("  guaranteed within n ≤ 10:               %d\n", hist["2≤n≤10"])
	fmt.Printf("  needing n > 10:                         %d\n", hist["n>10"])
	fmt.Printf("  hardest: %s with nmin = %d\n", worstName, worstN)
	fmt.Println("\nnote: per-part guarantees are an approximation (each part sees a projection")
	fmt.Println("of the input space and only its own outputs); see the partition package docs.")
}

// buildWide makes a 24-input, 6-output circuit of three interleaved
// comparator/parity blocks, with enough shared structure that cones
// overlap but each stays under 10 inputs.
func buildWide() *ndetect.Circuit {
	b := ndetect.NewBuilder("wide24")
	for i := 0; i < 24; i++ {
		b.Input(in(i))
	}
	for blk := 0; blk < 3; blk++ {
		base := blk * 8
		// eq: 4-bit equality comparator between the block's two nibbles.
		for k := 0; k < 4; k++ {
			b.Gate(ndetect.Xnor, sig("eq", blk, k), in(base+k), in(base+4+k))
		}
		b.Gate(ndetect.And, sig("alleq", blk, 0),
			sig("eq", blk, 0), sig("eq", blk, 1), sig("eq", blk, 2), sig("eq", blk, 3))
		// par: parity of the first nibble.
		b.Gate(ndetect.Xor, sig("par", blk, 0), in(base), in(base+1), in(base+2), in(base+3))
		// Outputs mix the block with its neighbour's parity input bit.
		neighbour := in(((blk + 1) % 3) * 8)
		b.Gate(ndetect.Or, sig("oeq", blk, 0), sig("alleq", blk, 0), neighbour)
		b.Gate(ndetect.And, sig("opar", blk, 0), sig("par", blk, 0), neighbour)
		b.Output(sig("oeq", blk, 0))
		b.Output(sig("opar", blk, 0))
	}
	c, err := b.Build()
	if err != nil {
		log.Fatal(err)
	}
	return c
}

func in(i int) string                 { return fmt.Sprintf("x%02d", i) }
func sig(p string, blk, k int) string { return fmt.Sprintf("%s_%d_%d", p, blk, k) }

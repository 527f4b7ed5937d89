package ndetect

import (
	"math"
	"sort"

	"ndetect/internal/bitset"
	"ndetect/internal/sim"
)

// Unbounded is the nmin value of an untargeted fault no n-detection test set
// is ever guaranteed to detect (F(g) is empty: no target fault's test set
// overlaps T(g)). No finite n suffices for such faults.
const Unbounded = math.MaxInt

// NMinPair computes nmin(g,f) = N(f) − M(g,f) + 1, the smallest n for which
// detecting f n times forces the test set to hit T(g). It returns Unbounded
// when the test sets do not intersect (f ∉ F(g)).
func NMinPair(g, f Fault) int {
	m := f.T.IntersectionCount(g.T)
	if m == 0 {
		return Unbounded
	}
	return f.T.Count() - m + 1
}

// NMin computes nmin(g) = min over f ∈ F(g) of nmin(g,f).
func NMin(g Fault, targets []Fault) int {
	best := Unbounded
	for _, f := range targets {
		if v := NMinPair(g, f); v < best {
			best = v
		}
	}
	return best
}

// PairContribution reports one target fault's role in the worst-case
// analysis of an untargeted fault, mirroring the columns of the paper's
// Table 1.
type PairContribution struct {
	TargetIndex int
	Name        string
	N           int // N(f)
	M           int // M(g,f)
	NMin        int // nmin(g,f)
}

// ContributingFaults returns, for one untargeted fault g, the set F(g) of
// target faults whose test sets overlap T(g), with their nmin(g,f) values —
// the data of the paper's Table 1.
func ContributingFaults(g Fault, targets []Fault) []PairContribution {
	var out []PairContribution
	for i, f := range targets {
		m := f.T.IntersectionCount(g.T)
		if m == 0 {
			continue
		}
		n := f.T.Count()
		out = append(out, PairContribution{
			TargetIndex: i,
			Name:        f.Name,
			N:           n,
			M:           m,
			NMin:        n - m + 1,
		})
	}
	return out
}

// WorstCaseResult holds nmin(g) for every untargeted fault of a universe.
type WorstCaseResult struct {
	// NMin[j] is nmin for Untargeted[j]; Unbounded if no guarantee exists.
	NMin []int
}

// WorstCase runs the Section 2 analysis over the whole universe with one
// worker per CPU (see WorstCaseWorkers).
func WorstCase(u *Universe) *WorstCaseResult {
	return WorstCaseWorkers(u, 0)
}

// WorstCaseWorkers is WorstCase with an explicit worker bound, in parallel
// over the untargeted faults (each nmin(g) is independent): 0 means one
// worker per CPU, 1 the exact serial order. The result is identical for
// every worker count; only wall-clock time changes (DESIGN.md §5 — the
// knob must be threaded, not re-resolved, so callers that split a budget
// across concurrent circuits or parts stay within it).
//
// nmin(g) depends on T(g) alone, so the scan runs once per T-set class
// (tsetClasses) and each class's value is copied to its members. Targets
// with equal T-sets give equal nmin(g,f), so the scan visits one target
// per class as well.
func WorstCaseWorkers(u *Universe, workers int) *WorstCaseResult {
	r := &WorstCaseResult{NMin: make([]int, len(u.Untargeted))}
	classOf, reps := tsetClasses(u.Untargeted)
	_, order := tsetClasses(u.Targets)

	// Precompute N(f) once and visit targets in ascending N(f): the lower
	// bound nmin(g,f) ≥ N(f) + 1 − min(N(f), |T(g)|) is nondecreasing in
	// N(f), so once it reaches the best value found the scan can stop.
	nf := make([]int, len(u.Targets))
	for i, f := range u.Targets {
		nf[i] = f.T.Count()
	}
	sort.Slice(order, func(a, b int) bool { return nf[order[a]] < nf[order[b]] })

	// Most scanned pairs are disjoint (86–93% on dvram, s1a and keyb), and
	// the sketches prove about nine in ten of those without reading either
	// set. A skip stands in for exactly one m == 0 outcome, so the visit
	// order, the breaks and every nmin are unchanged.
	sk := make([]bitset.Sketch, len(order))
	for p, i := range order {
		sk[p] = u.Targets[i].T.Sketch()
	}

	one := func(c int) {
		g := u.Untargeted[reps[c]]
		ng := g.T.Count()
		gs := g.T.Sketch()
		best := Unbounded
		for p, i := range order {
			lb := nf[i] + 1 - min(nf[i], ng)
			if lb >= best {
				break // all later targets have larger N(f), hence larger lb
			}
			if bitset.Disjoint(gs, sk[p]) {
				continue
			}
			m := u.Targets[i].T.IntersectionCount(g.T)
			if m == 0 {
				continue
			}
			if v := nf[i] - m + 1; v < best {
				best = v
				if best == 1 {
					break
				}
			}
		}
		r.NMin[c] = best
	}

	sim.ParallelFor(workers, len(reps), one)
	expandClasses(r.NMin, classOf)
	return r
}

// CoverageAt returns the fraction (0..1) of untargeted faults with
// nmin(g) ≤ n — the quantity tabulated (as a percentage) in Table 2.
func (r *WorstCaseResult) CoverageAt(n int) float64 {
	if len(r.NMin) == 0 {
		return 1
	}
	c := 0
	for _, v := range r.NMin {
		if v <= n {
			c++
		}
	}
	return float64(c) / float64(len(r.NMin))
}

// CountAtLeast returns the number of untargeted faults with nmin(g) ≥ n —
// the quantity tabulated in Table 3. Unbounded faults are included.
func (r *WorstCaseResult) CountAtLeast(n int) int {
	c := 0
	for _, v := range r.NMin {
		if v >= n {
			c++
		}
	}
	return c
}

// IndicesAtLeast returns the untargeted fault indices with nmin(g) ≥ n, in
// index order — Tables 5 and 6 run the average-case analysis exactly on
// this subset (n = 11 there).
func (r *WorstCaseResult) IndicesAtLeast(n int) []int {
	var out []int
	for j, v := range r.NMin {
		if v >= n {
			out = append(out, j)
		}
	}
	return out
}

// MaxFinite returns the largest finite nmin value, or 0 if none.
func (r *WorstCaseResult) MaxFinite() int {
	best := 0
	for _, v := range r.NMin {
		if v != Unbounded && v > best {
			best = v
		}
	}
	return best
}

// Histogram returns the sorted distinct finite nmin values ≥ from, with
// their fault counts — the data behind the paper's Figure 2 (which plots
// the distribution of nmin(g) for faults with nmin(g) ≥ 100).
func (r *WorstCaseResult) Histogram(from int) (values []int, counts []int) {
	h := make(map[int]int)
	for _, v := range r.NMin {
		if v != Unbounded && v >= from {
			h[v]++
		}
	}
	values = make([]int, 0, len(h))
	for v := range h {
		values = append(values, v)
	}
	sort.Ints(values)
	counts = make([]int, len(values))
	for i, v := range values {
		counts[i] = h[v]
	}
	return values, counts
}

// TightnessWitness returns U − T(g): by construction an (nmin(g)−1)-
// detection test set that fails to detect g, proving the worst-case bound is
// exact. (For every target f ∈ F(g), |T(f) − T(g)| = N(f) − M(g,f) =
// nmin(g,f) − 1 ≥ nmin(g) − 1; targets outside F(g) keep all their tests.)
func TightnessWitness(u *Universe, j int) *bitset.Set {
	w := bitset.New(u.Size)
	w.Fill()
	w.DifferenceWith(u.Untargeted[j].T)
	return w
}

package ndetect

import (
	"fmt"
	"math/bits"
	"math/rand"
	"sync"

	"ndetect/internal/bitset"
	"ndetect/internal/sim"
)

// Definition selects how Procedure 1 counts detections (paper Section 4).
type Definition int

// The paper's two definitions of "detected n times".
const (
	// Def1: a fault is detected n times if the set contains n tests that
	// detect it.
	Def1 Definition = 1
	// Def2: two tests only count as distinct detections of f if the
	// partial vector of their common bits does not itself detect f. When a
	// fault cannot reach n distinct detections under Def2, Procedure 1
	// falls back to Def1 for that fault (as specified in the paper).
	Def2 Definition = 2
)

// DistinctChecker is Definition 2's similarity oracle: Distinct(i, t1, t2)
// reports whether tests t1 and t2 count as two different detections of
// target fault i (i.e. whether the common-bits partial test t12 does NOT
// detect the fault). Implementations must be safe for concurrent use.
type DistinctChecker interface {
	Distinct(faultIndex, t1, t2 int) bool
}

// Procedure1Options configures the random n-detection test set generator.
type Procedure1Options struct {
	NMax int   // build n-detection test sets for n = 1..NMax (paper: 10)
	K    int   // number of test sets per n (paper: 10000 for Table 5, 1000 for Table 6)
	Seed int64 // base seed; test set k uses a deterministic stream derived from (Seed, k)

	Definition Definition      // Def1 (default) or Def2
	Checker    DistinctChecker // required iff Definition == Def2

	// Workers bounds the parallelism over test sets (default: GOMAXPROCS).
	// Results are deterministic regardless of the worker count: each test
	// set's randomness comes only from its own (Seed, k) stream.
	Workers int

	// Progress, when non-nil, observes completed test sets: it is called
	// serially with (finished, K) as each of the K sets completes, in
	// completion order. Like Workers, it never influences results.
	Progress func(done, total int)

	// KeepTestSets retains the constructed test sets per n (memory-heavy
	// for large K; used for illustration and tests, cf. the paper's
	// Table 4).
	KeepTestSets bool
}

func (o *Procedure1Options) normalize() error {
	if o.NMax <= 0 {
		o.NMax = 10
	}
	if o.K <= 0 {
		o.K = 1000
	}
	if o.Definition == 0 {
		o.Definition = Def1
	}
	if o.Definition == Def2 && o.Checker == nil {
		return fmt.Errorf("ndetect: Definition 2 requires a DistinctChecker")
	}
	if o.Definition != Def1 && o.Definition != Def2 {
		return fmt.Errorf("ndetect: unknown definition %d", o.Definition)
	}
	o.Workers = sim.ResolveWorkers(o.Workers)
	return nil
}

// Procedure1Result aggregates the K runs.
type Procedure1Result struct {
	NMax int
	K    int

	// Detected[n-1][j] is d(n, g_j): among the K n-detection test sets,
	// how many detect untargeted fault j.
	Detected [][]int

	// SetSizeSum[n-1] is the summed size of the K n-detection test sets
	// (SetSizeSum[n-1]/K is the average size, which grows roughly linearly
	// in n, the paper's motivation for bounding n).
	SetSizeSum []int64

	// TestSets[n-1][k] is test set k after iteration n. Only populated
	// with KeepTestSets.
	TestSets [][]*TestSet
}

// P returns the estimated probability p(n, g_j) = d(n,g_j)/K.
func (r *Procedure1Result) P(n, j int) float64 {
	return float64(r.Detected[n-1][j]) / float64(r.K)
}

// Procedure1 implements the paper's Procedure 1: for every k it grows a test
// set through iterations n = 1..NMax; at the end of iteration n, Tk is an
// n-detection test set. Detection statistics for the untargeted faults are
// recorded after every iteration.
func Procedure1(u *Universe, opts Procedure1Options) (*Procedure1Result, error) {
	if err := opts.normalize(); err != nil {
		return nil, err
	}
	if err := u.Validate(); err != nil {
		return nil, err
	}

	res := &Procedure1Result{
		NMax:       opts.NMax,
		K:          opts.K,
		Detected:   make([][]int, opts.NMax),
		SetSizeSum: make([]int64, opts.NMax),
	}
	for n := range res.Detected {
		res.Detected[n] = make([]int, len(u.Untargeted))
	}
	if opts.KeepTestSets {
		res.TestSets = make([][]*TestSet, opts.NMax)
		for n := range res.TestSets {
			res.TestSets[n] = make([]*TestSet, opts.K)
		}
	}

	// Reverse index: for every vector, which untargeted T-set classes it
	// detects. Whether a test set detects g depends on T(g) alone, so the
	// runs track one slot per class (tsetClasses) and res.Detected[n] holds
	// per-class counts in its low slots until the expansion below. Marking
	// first detections costs O(|classes detected by v|) per added vector
	// instead of a full |G| sweep per iteration.
	classOf, reps := tsetClasses(u.Untargeted)
	gAt := make([][]int32, u.Size)
	for c, j := range reps {
		u.Untargeted[j].T.ForEach(func(v int) {
			gAt[v] = append(gAt[v], int32(c))
		})
	}
	// Same for targets: incremental Definition 1 counts.
	fAt := make([][]int32, u.Size)
	for i, f := range u.Targets {
		f.T.ForEach(func(v int) {
			fAt[v] = append(fAt[v], int32(i))
		})
	}

	// Fan the K independent test-set streams over the §5 worker budget.
	// Every merge into res is commutative (counters under mu), so the
	// work-stealing completion order never shows in the result bytes.
	var mu sync.Mutex
	finished := 0
	sim.ParallelFor(opts.Workers, opts.K, func(k int) {
		runOne(u, &opts, k, len(reps), fAt, gAt, res, &mu)
		if opts.Progress != nil {
			mu.Lock()
			finished++
			opts.Progress(finished, opts.K)
			mu.Unlock()
		}
	})
	for _, d := range res.Detected {
		expandClasses(d, classOf)
	}
	return res, nil
}

// runOne builds one test set through all NMax iterations and merges its
// per-class detection statistics into res under mu.
func runOne(u *Universe, opts *Procedure1Options, k, classes int, fAt, gAt [][]int32, res *Procedure1Result, mu *sync.Mutex) {
	rng := rand.New(rand.NewSource(mix(opts.Seed, int64(k))))
	tk := NewTestSet(u.Size)
	def1Count := make([]int, len(u.Targets))
	gDetected := make([]bool, classes)

	var d2 *def2State
	if opts.Definition == Def2 {
		d2 = newDef2State(len(u.Targets), opts.Checker)
	}

	add := func(v int) {
		if !tk.Add(v) {
			return
		}
		for _, fi := range fAt[v] {
			def1Count[fi]++
		}
		for _, c := range gAt[v] {
			gDetected[c] = true
		}
	}

	detectedAtN := make([][]int32, opts.NMax)
	sizeAtN := make([]int, opts.NMax)

	for n := 1; n <= opts.NMax; n++ {
		for fi := range u.Targets {
			f := &u.Targets[fi]
			switch opts.Definition {
			case Def1:
				if def1Count[fi] >= n {
					continue
				}
				v, ok := pickRandomOutside(f.T, tk, rng)
				if ok {
					add(v)
				}
			case Def2:
				if d2.countUpTo(fi, n, f, tk) >= n {
					continue
				}
				// Find a test outside Tk that counts as a distinct
				// detection under Definition 2. (Its membership in the
				// distinct set is established when the cursor reaches it.)
				if v, ok := d2.pickDistinct(fi, f, tk, rng); ok {
					add(v)
					continue
				}
				// Fall back to Definition 1 for this fault so it is not
				// left with far fewer than n detections.
				if def1Count[fi] >= n {
					continue
				}
				if v, ok := pickRandomOutside(f.T, tk, rng); ok {
					add(v)
				}
			}
		}
		// Snapshot statistics for this n.
		var dets []int32
		for c, d := range gDetected {
			if d {
				dets = append(dets, int32(c))
			}
		}
		detectedAtN[n-1] = dets
		sizeAtN[n-1] = tk.Len()
		if opts.KeepTestSets {
			mu.Lock()
			res.TestSets[n-1][k] = tk.Clone()
			mu.Unlock()
		}
	}

	mu.Lock()
	for n := 0; n < opts.NMax; n++ {
		for _, c := range detectedAtN[n] {
			res.Detected[n][c]++
		}
		res.SizeAdd(n, sizeAtN[n])
	}
	mu.Unlock()
}

// SizeAdd accumulates one test set's size for iteration n (0-based). Callers
// must hold the result mutex; exported for the internal test that exercises
// aggregation directly.
func (r *Procedure1Result) SizeAdd(n, size int) { r.SetSizeSum[n] += int64(size) }

// pickRandomOutside selects a uniformly random member of T(f) − Tk: the
// n-th member for one draw n < |T(f) − Tk|, counted and selected over the
// words of both sets in place instead of through a difference bitset.
func pickRandomOutside(t *bitset.Set, tk *TestSet, rng *rand.Rand) (int, bool) {
	tw, kw := t.Words(), tk.Set().Words()
	c := 0
	for i, w := range tw {
		c += bits.OnesCount64(w &^ kw[i])
	}
	if c == 0 {
		return 0, false
	}
	n := rng.Intn(c)
	for i, w := range tw {
		w &^= kw[i]
		if m := bits.OnesCount64(w); n >= m {
			n -= m
			continue
		}
		for ; n > 0; n-- {
			w &= w - 1
		}
		return i*64 + bits.TrailingZeros64(w), true
	}
	panic("ndetect: draw beyond |T(f) − Tk|")
}

// mix derives a well-spread 64-bit seed from (base, k) with a splitmix64
// round, so neighbouring k values do not produce correlated rand streams.
func mix(base, k int64) int64 {
	z := uint64(base) + uint64(k)*0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	z = z ^ (z >> 31)
	return int64(z)
}

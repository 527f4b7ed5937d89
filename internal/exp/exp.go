// Package exp orchestrates the paper's experiments over the benchmark
// suite: it drives synthesis, universe construction, the worst-case and
// average-case analyses, and shapes the results into the rows of Tables
// 2, 3, 5 and 6 and the Figure 2 histogram.
package exp

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"ndetect/internal/bench"
	"ndetect/internal/fault"
	"ndetect/internal/ndetect"
	"ndetect/internal/report"
	"ndetect/internal/sim"
)

// Config controls an experiment run.
type Config struct {
	// Circuits restricts the run (nil = every benchmark).
	Circuits []string
	// NMax is the deepest n-detection level (paper: 10).
	NMax int
	// K5 is the number of random test sets for Table 5 (paper: 10000).
	K5 int
	// K6 is the number of random test sets for Table 6 (paper: 1000).
	K6 int
	// Seed drives all randomized parts deterministically.
	Seed int64
	// Ge11Limit caps the size of the nmin ≥ 11 subset fed to the
	// average-case analysis (0 = no cap). The surrogate circuits can have
	// substantially larger tails than the paper's; the cap keeps Table 5/6
	// regeneration affordable while preserving the distribution shape
	// (faults are kept in nmin order).
	Ge11Limit int
	// Workers bounds the parallelism of the run at every level: circuits
	// fan out across a bounded pool, and the same count is threaded into
	// the per-circuit block-streaming T-set kernel (engine word blocks or
	// fault-level fan-out, whichever the universe size favors) and into
	// Procedure 1. 0 = one worker per CPU; 1 reproduces the original
	// serial pass. Tables are identical for every value — rows are always
	// emitted in circuitList() order.
	Workers int
}

// normalize fills defaults.
func (c *Config) normalize() {
	if c.NMax <= 0 {
		c.NMax = 10
	}
	if c.K5 <= 0 {
		c.K5 = 1000
	}
	if c.K6 <= 0 {
		c.K6 = 200
	}
}

// CircuitRun is the per-circuit artifact of the worst-case pass.
type CircuitRun struct {
	Name     string
	Universe *ndetect.CircuitUniverse
	WC       *ndetect.WorstCaseResult
}

// RunCircuitWorkers synthesizes one benchmark and runs the worst-case
// analysis, with an explicit worker count threaded into every stage —
// exhaustive simulation, T-set construction and the worst-case analysis
// (0 = one per CPU). mapCircuits passes its split per-circuit budget here,
// so the stages never multiply it back up.
func RunCircuitWorkers(name string, workers int) (*CircuitRun, error) {
	b, ok := bench.ByName(name)
	if !ok {
		return nil, fmt.Errorf("exp: unknown benchmark %q", name)
	}
	r, err := b.SynthesizeDefault()
	if err != nil {
		return nil, err
	}
	u, err := ndetect.BuildUniverse(r.Circuit, fault.Default(), ndetect.AnalyzeOptions{Workers: workers})
	if err != nil {
		return nil, err
	}
	return &CircuitRun{Name: name, Universe: u, WC: ndetect.WorstCaseWorkers(&u.Universe, workers)}, nil
}

// circuitList resolves the configured circuit set.
func (c *Config) circuitList() []string {
	if len(c.Circuits) > 0 {
		return c.Circuits
	}
	names := make([]string, 0)
	for _, b := range bench.All() {
		names = append(names, b.Name)
	}
	return names
}

// mapCircuits is the circuit-level fan-out shared by every table driver and
// RunAll: it runs fn once per configured circuit across a bounded pool
// (work-stealing over the circuit list, so cheap circuits do not idle a
// worker while a big one runs) and returns the kept results in
// circuitList() order — the serial row order of the paper's tables —
// regardless of completion order. The cfg.Workers budget is split between
// the levels rather than multiplied: fn receives the inner worker count to
// thread into the per-circuit simulation and Procedure 1, so total
// CPU-bound goroutines stay ≈ Workers instead of Workers², and at most
// min(Workers, circuits) universes are live at once. fn returning
// keep=false drops the circuit from the output (Tables 3/5/6 skip circuits
// without a tail). On error the remaining unstarted circuits are abandoned
// and the error of the earliest-indexed failed circuit is returned.
func mapCircuits[T any](cfg *Config, fn func(name string, workers int) (T, bool, error)) ([]T, error) {
	names := cfg.circuitList()
	vals := make([]T, len(names))
	keep := make([]bool, len(names))
	errs := make([]error, len(names))

	total := sim.ResolveWorkers(cfg.Workers)
	outer := total
	if outer > len(names) {
		outer = len(names)
	}
	inner := 1
	if outer > 0 {
		inner = total / outer
		if inner < 1 {
			inner = 1
		}
	}

	var failed atomic.Bool
	sim.ParallelFor(outer, len(names), func(i int) {
		if failed.Load() {
			return
		}
		v, ok, err := fn(names[i], inner)
		if err != nil {
			errs[i] = err
			failed.Store(true)
			return
		}
		vals[i], keep[i] = v, ok
	})

	out := make([]T, 0, len(names))
	for i := range names {
		if errs[i] != nil {
			return nil, errs[i]
		}
		if keep[i] {
			out = append(out, vals[i])
		}
	}
	return out, nil
}

// observer serializes a progress callback across the circuit workers.
// Callbacks fire in completion order, not row order.
func observer[T any](observe func(T)) func(T) {
	if observe == nil {
		return nil
	}
	var mu sync.Mutex
	return func(v T) {
		mu.Lock()
		defer mu.Unlock()
		observe(v)
	}
}

// Table2 computes the worst-case coverage rows for the configured circuits.
// The callback, when non-nil, observes each completed circuit (progress
// reporting; completion order). Each universe is released as soon as its
// circuit is summarized; up to min(Workers, circuits) are live at once.
func Table2(cfg Config, observe func(*CircuitRun)) ([]report.Table2Row, error) {
	cfg.normalize()
	obs := observer(observe)
	return mapCircuits(&cfg, func(name string, workers int) (report.Table2Row, bool, error) {
		run, err := RunCircuitWorkers(name, workers)
		if err != nil {
			return report.Table2Row{}, false, err
		}
		row := Table2Row(run)
		if obs != nil {
			obs(run)
		}
		return row, true, nil
	})
}

// Table2Row summarizes one circuit's worst-case run as a Table 2 row.
func Table2Row(run *CircuitRun) report.Table2Row {
	row := report.Table2Row{
		Circuit: run.Name,
		Faults:  len(run.Universe.Untargeted),
	}
	for i, n := range report.NMinColumns {
		row.Pct[i] = 100 * run.WC.CoverageAt(n)
	}
	return row
}

// Table3Row summarizes one circuit's worst-case run as a Table 3 row.
func Table3Row(run *CircuitRun) report.Table3Row {
	return report.Table3Row{
		Circuit: run.Name,
		Faults:  len(run.Universe.Untargeted),
		Ge100:   run.WC.CountAtLeast(100),
		Ge20:    run.WC.CountAtLeast(20),
		Ge11:    run.WC.CountAtLeast(11),
	}
}

// Table3 computes worst-case tail rows; like the paper, only circuits with
// nmin(g) ≥ 11 faults are included.
func Table3(cfg Config, observe func(*CircuitRun)) ([]report.Table3Row, error) {
	cfg.normalize()
	obs := observer(observe)
	return mapCircuits(&cfg, func(name string, workers int) (report.Table3Row, bool, error) {
		run, err := RunCircuitWorkers(name, workers)
		if err != nil {
			return report.Table3Row{}, false, err
		}
		keep := run.WC.CountAtLeast(11) > 0
		row := report.Table3Row{}
		if keep {
			row = Table3Row(run)
		}
		if obs != nil {
			obs(run)
		}
		return row, keep, nil
	})
}

// Figure2 renders the nmin distribution histogram for one circuit (the
// paper shows dvram with cutoff 100; the cutoff adapts downward to the
// largest populated decade if the surrogate's tail is shorter).
func Figure2(name string, cutoff int) (string, error) {
	run, err := RunCircuitWorkers(name, 0)
	if err != nil {
		return "", err
	}
	eff := cutoff
	for eff > 10 && run.WC.CountAtLeast(eff) == 0 {
		eff /= 2
	}
	values, counts := run.WC.Histogram(eff)
	unbounded := 0
	for _, v := range run.WC.NMin {
		if v == ndetect.Unbounded {
			unbounded++
		}
	}
	return report.FormatFigure2(name, eff, values, counts, unbounded), nil
}

// ge11Subset returns the indices of the nmin ≥ 11 faults, in nmin order
// (hardest last), optionally capped.
func ge11Subset(run *CircuitRun, limit int) []int {
	return capEvenly(run.WC.IndicesAtLeast(11), run.WC.NMin, limit)
}

// capEvenly caps a fault-index subset at limit entries by sampling evenly
// across the nmin-sorted list — keeping the distribution shape rather than
// truncating one end (DESIGN.md §4). idx is returned unchanged when limit
// is 0 or already satisfied; it is sorted in place otherwise.
func capEvenly(idx []int, nmin []int, limit int) []int {
	if limit <= 0 || len(idx) <= limit {
		return idx
	}
	sort.SliceStable(idx, func(a, b int) bool { return nmin[idx[a]] < nmin[idx[b]] })
	out := make([]int, 0, limit)
	step := float64(len(idx)) / float64(limit)
	for i := 0; i < limit; i++ {
		out = append(out, idx[int(float64(i)*step)])
	}
	return out
}

// Table5 runs the average-case analysis (Definition 1) on every configured
// circuit that has nmin ≥ 11 faults, producing Table 5 rows.
func Table5(cfg Config, observe func(string)) ([]report.Table5Row, error) {
	cfg.normalize()
	obs := observer(observe)
	return mapCircuits(&cfg, func(name string, workers int) (report.Table5Row, bool, error) {
		run, err := RunCircuitWorkers(name, workers)
		if err != nil {
			return report.Table5Row{}, false, err
		}
		idx := ge11Subset(run, cfg.Ge11Limit)
		if len(idx) == 0 {
			return report.Table5Row{}, false, nil
		}
		sub := run.Universe.SubsetUntargeted(idx)
		res, err := ndetect.Procedure1(sub, ndetect.Procedure1Options{
			NMax: cfg.NMax, K: cfg.K5, Seed: cfg.Seed, Workers: workers,
		})
		if err != nil {
			return report.Table5Row{}, false, err
		}
		if obs != nil {
			obs(name)
		}
		return thresholdRow(name, res, cfg.NMax), true, nil
	})
}

func thresholdRow(name string, res *ndetect.Procedure1Result, n int) report.Table5Row {
	row := report.Table5Row{Circuit: name, Faults: len(res.Detected[n-1])}
	counts := res.ThresholdCounts(n)
	copy(row.Counts[:], counts)
	return row
}

// Table6 runs the Definition 1 vs Definition 2 comparison on every
// configured circuit with nmin ≥ 11 faults.
func Table6(cfg Config, observe func(string)) ([]report.Table6Row, error) {
	cfg.normalize()
	obs := observer(observe)
	return mapCircuits(&cfg, func(name string, workers int) (report.Table6Row, bool, error) {
		run, err := RunCircuitWorkers(name, workers)
		if err != nil {
			return report.Table6Row{}, false, err
		}
		idx := ge11Subset(run, cfg.Ge11Limit)
		if len(idx) == 0 {
			return report.Table6Row{}, false, nil
		}
		row, err := table6Row(&cfg, name, run, idx, run.Universe.SubsetUntargeted(idx), workers)
		if err != nil {
			return report.Table6Row{}, false, err
		}
		if obs != nil {
			obs(name)
		}
		return row, true, nil
	})
}

// table6Row computes one circuit's Definition 1 vs 2 comparison (shared by
// Table6 and RunAll, which pass in the nmin ≥ 11 subset they already built
// and their per-circuit worker budget).
func table6Row(cfg *Config, name string, run *CircuitRun, idx []int, sub *ndetect.Universe, workers int) (report.Table6Row, error) {
	opts := ndetect.Procedure1Options{NMax: cfg.NMax, K: cfg.K6, Seed: cfg.Seed, Workers: workers}
	r1, err := ndetect.Procedure1(sub, opts)
	if err != nil {
		return report.Table6Row{}, err
	}
	opts.Definition = ndetect.Def2
	opts.Checker = ndetect.NewCircuitCheckerFor(run.Universe)
	r2, err := ndetect.Procedure1(sub, opts)
	if err != nil {
		return report.Table6Row{}, err
	}
	row := report.Table6Row{Circuit: name, Faults: len(idx)}
	copy(row.Def1[:], r1.ThresholdCounts(cfg.NMax))
	copy(row.Def2[:], r2.ThresholdCounts(cfg.NMax))
	return row, nil
}

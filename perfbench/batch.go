package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"time"

	"ndetect/internal/bench"
	"ndetect/internal/circuit"
	"ndetect/internal/exp"
	"ndetect/internal/obs"
	"ndetect/internal/report"
)

// batchWorkload is a closed loop of single-circuit analyses, one client,
// Workers 1: one worker keeps run-to-run spread low on a small machine.
type batchWorkload struct {
	kind     exp.AnalysisKind
	circuits []string
	// limit is the latency an analysis must meet to count toward goodput.
	limit time.Duration
}

var batchWorkloads = map[string]batchWorkload{
	"wc-large": {exp.WorstCaseAnalysis, []string{"dvram", "s1a", "keyb"}, 10 * time.Second},
	"avg-mid":  {exp.AverageAnalysis, []string{"bbara", "log", "fetch", "ex4", "opus"}, 3 * time.Second},
}

// batchInput is one analysis of the loop with the digest of its correct
// document.
type batchInput struct {
	c    *circuit.Circuit
	req  exp.AnalysisRequest
	want [sha256.Size]byte
}

// setupBatch synthesizes the circuits and fixes each analysis's expected
// document. Worst-case documents do not depend on the seed, so their
// digests are committed (digests.json). An average document is compared
// against a reference computed here at Workers 1, whose worst-case
// section must itself match the committed digest.
func setupBatch(w batchWorkload, seed int64) ([]batchInput, error) {
	rng := rand.New(rand.NewSource(seed))
	in := make([]batchInput, 0, len(w.circuits))
	for _, name := range w.circuits {
		c, err := namedCircuit(name)
		if err != nil {
			return nil, err
		}
		req := exp.AnalysisRequest{Kind: w.kind, Workers: 1}
		if w.kind == exp.AverageAnalysis {
			req.NMax, req.K, req.Seed = 10, 1000, procedure1Seed(rng)
		}
		want, err := expectedDigest(name, c, req)
		if err != nil {
			return nil, err
		}
		in = append(in, batchInput{c: c, req: req, want: want})
	}
	return in, nil
}

// procedure1Seed draws a positive Procedure 1 seed (0 would normalize
// to the default seed 1).
func procedure1Seed(rng *rand.Rand) int64 { return 1 + rng.Int63n(1<<40) }

func namedCircuit(name string) (*circuit.Circuit, error) {
	b, ok := bench.ByName(name)
	if !ok {
		return nil, fmt.Errorf("unknown benchmark circuit %s", name)
	}
	r, err := b.SynthesizeDefault()
	if err != nil {
		return nil, fmt.Errorf("synthesize %s: %w", name, err)
	}
	return r.Circuit, nil
}

// expectedDigest returns the SHA-256 of the document req must produce
// on the named circuit.
func expectedDigest(name string, c *circuit.Circuit, req exp.AnalysisRequest) ([sha256.Size]byte, error) {
	committed, err := committedDigest(name)
	if err != nil {
		return committed, err
	}
	if req.Kind == exp.WorstCaseAnalysis {
		return committed, nil
	}
	doc, err := exp.AnalyzeCircuit(c, req)
	if err != nil {
		return committed, fmt.Errorf("reference %s: %w", name, err)
	}
	if worstCaseDigest(doc) != committed {
		return committed, fmt.Errorf("reference %s: worst-case section differs from the committed digest", name)
	}
	return sha256.Sum256(doc.Encode()), nil
}

// worstCaseDigest hashes the worst-case document that carries doc's
// worst-case section: the seed-independent part of any analysis.
func worstCaseDigest(doc *report.Analysis) [sha256.Size]byte {
	wc := report.Analysis{
		Schema:    doc.Schema,
		Kind:      string(exp.WorstCaseAnalysis),
		Circuit:   doc.Circuit,
		WorstCase: doc.WorstCase,
	}
	return sha256.Sum256(wc.Encode())
}

//go:embed digests.json
var digestsJSON []byte

// digestCircuits are the named circuits whose worst-case documents are
// committed.
var digestCircuits = []string{"bbara", "dvram", "ex4", "fetch", "keyb", "log", "opus", "s1a"}

func committedDigest(name string) ([sha256.Size]byte, error) {
	var d [sha256.Size]byte
	var all map[string]string
	if err := json.Unmarshal(digestsJSON, &all); err != nil {
		return d, fmt.Errorf("digests.json: %w", err)
	}
	b, err := hex.DecodeString(all[name])
	if err != nil || len(b) != len(d) {
		return d, fmt.Errorf("digests.json: no valid digest for %s", name)
	}
	copy(d[:], b)
	return d, nil
}

// writeDigests prints digests.json as the program computes it today.
func writeDigests(w io.Writer) error {
	all := map[string]string{}
	for _, name := range digestCircuits {
		c, err := namedCircuit(name)
		if err != nil {
			return err
		}
		doc, err := exp.AnalyzeCircuit(c, exp.AnalysisRequest{Kind: exp.WorstCaseAnalysis})
		if err != nil {
			return err
		}
		d := sha256.Sum256(doc.Encode())
		all[name] = hex.EncodeToString(d[:])
	}
	out, err := json.MarshalIndent(all, "", "  ")
	if err != nil {
		return err
	}
	_, err = w.Write(append(out, '\n'))
	return err
}

// batchRound is one pass over every input of the loop.
type batchRound struct {
	busy   time.Duration // summed analysis time
	inTime int           // correct analyses within the latency limit
}

// batchRun is what one measured loop observed.
type batchRun struct {
	rounds    []batchRound
	latencies []float64 // ms, every analysis
	attempted int
	failed    int
	layers    *layerSums
}

// loopBatch runs whole rounds until budget has passed. Each analysis is
// timed from the call into AnalyzeCircuit to the encoded bytes in hand;
// checking the bytes happens outside that interval. traced sets the
// hooks on every analysis; delay is injected into the named phases.
func loopBatch(in []batchInput, w batchWorkload, budget time.Duration, traced bool, delay map[string]time.Duration) (*batchRun, error) {
	run := &batchRun{layers: newLayerSums()}
	start := obs.StartTimer()
	for len(run.rounds) == 0 || start.Elapsed() < budget {
		var r batchRound
		for _, x := range in {
			var data []byte
			var d time.Duration
			if traced {
				op, b, err := analyzeTraced(x.c, x.req, delay)
				if err != nil {
					return nil, err
				}
				run.layers.add(op)
				data, d = b, op.wall
			} else {
				t := obs.StartTimer()
				doc, err := exp.AnalyzeCircuit(x.c, x.req)
				if err != nil {
					return nil, err
				}
				data = doc.Encode()
				d = t.Elapsed()
			}
			run.attempted++
			ok := sha256.Sum256(data) == x.want
			if !ok {
				run.failed++
			}
			r.busy += d
			if ok && d <= w.limit {
				r.inTime++
			}
			run.latencies = append(run.latencies, ms(d))
		}
		run.rounds = append(run.rounds, r)
	}
	return run, nil
}

// perSecond returns the median over rounds of count(round)/busy(round).
func (run *batchRun) perSecond(count func(batchRound) int) float64 {
	rates := make([]float64, len(run.rounds))
	for i, r := range run.rounds {
		rates[i] = float64(count(r)) / r.busy.Seconds()
	}
	return median(rates)
}

func (run *batchRun) medianRound() time.Duration {
	busy := make([]float64, len(run.rounds))
	for i, r := range run.rounds {
		busy[i] = float64(r.busy)
	}
	return time.Duration(median(busy))
}

func runBatch(cfg config, w batchWorkload) (*outcome, error) {
	in, setup, err := repeatSetup(cfg.trace,
		func() ([]batchInput, error) { return setupBatch(w, cfg.seed) },
		func([]batchInput) error { return nil })
	if err != nil {
		return nil, err
	}

	if !cfg.trace {
		run, err := loopBatch(in, w, cfg.budget, false, nil)
		if err != nil {
			return nil, err
		}
		n := len(in)
		return &outcome{
			attempted: run.attempted,
			failed:    run.failed,
			metrics: map[string]float64{
				"setup_s":        setup,
				"analyses_per_s": run.perSecond(func(batchRound) int { return n }),
				"latency_ms_p50": quantile(run.latencies, 0.5),
				"latency_ms_p90": quantile(run.latencies, 0.9),
				"goodput_rps":    run.perSecond(func(r batchRound) int { return r.inTime }),
			},
		}, nil
	}

	// Traced: half the budget untraced, half traced, so the tracing
	// overhead is measured on the same inputs.
	plain, err := loopBatch(in, w, cfg.budget/2, false, nil)
	if err != nil {
		return nil, err
	}
	traced, err := loopBatch(in, w, cfg.budget/2, true, nil)
	if err != nil {
		return nil, err
	}
	m := map[string]float64{
		"trace.overhead_ratio": float64(traced.medianRound())/float64(plain.medianRound()) - 1,
	}
	traced.layers.reportTimes(m)
	traced.layers.reportWork(m)
	var probe universeProbe
	for _, x := range in {
		if err := probe.add(x.c); err != nil {
			return nil, err
		}
	}
	probe.report(m)
	return &outcome{
		attempted: plain.attempted + traced.attempted,
		failed:    plain.failed + traced.failed,
		metrics:   m,
	}, nil
}

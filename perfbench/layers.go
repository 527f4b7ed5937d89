package main

import (
	"bytes"
	"fmt"
	"hash/maphash"
	"runtime/metrics"
	"sync"
	"time"

	"ndetect/internal/circuit"
	"ndetect/internal/exp"
	"ndetect/internal/fault"
	"ndetect/internal/ndetect"
	"ndetect/internal/obs"
	"ndetect/internal/report"
	"ndetect/internal/store"
)

// Layer attribution from outside the program. The analysis's phase hook
// (AnalysisRequest.Trace) brackets canonicalize, universe, worstcase and
// procedure1; its stage hook (AnalysisRequest.Progress) splits the
// universe into simulate, the T-set passes and assembly. The benchmark
// adds one bracket of its own, around Encode. Both hooks feed one
// obs.Recorder, as in the daemon's job traces; splitSpans tells them
// apart.

// phaseSink is the benchmark-side wrapper on the analysis's phase hook: it
// records each phase as a span, charges the phase the heap bytes
// allocated inside it, and can hold a phase open for an injected delay
// (the attribution self-test).
type phaseSink struct {
	rec   *obs.Recorder
	delay map[string]time.Duration

	mu    sync.Mutex
	alloc map[string]uint64
}

func newPhaseSink(delay map[string]time.Duration) *phaseSink {
	return &phaseSink{rec: obs.NewRecorder(), delay: delay, alloc: map[string]uint64{}}
}

// Begin implements exp.TraceSink.
func (s *phaseSink) Begin(name string) func() {
	a0 := allocBytes()
	end := s.rec.Begin(name)
	if d := s.delay[name]; d > 0 {
		time.Sleep(d)
	}
	return func() {
		end()
		a := allocBytes() - a0
		s.mu.Lock()
		s.alloc[name] += a
		s.mu.Unlock()
	}
}

// allocBytes reads the cumulative heap allocation counter without
// stopping the world.
func allocBytes() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// tracedOp is one analysis observed through the hooks.
type tracedOp struct {
	wall   time.Duration
	phases []obs.Span // analysis phases plus "encode"
	stages []obs.Span // progress stages
	alloc  map[string]uint64
	doc    *report.Analysis
	size   int // encoded document bytes
}

// analyzeTraced runs one analysis and its encoding with both hooks set.
func analyzeTraced(c *circuit.Circuit, req exp.AnalysisRequest, delay map[string]time.Duration) (*tracedOp, []byte, error) {
	sink := newPhaseSink(delay)
	req.Trace = sink
	req.Progress = sink.rec.Progress
	t := obs.StartTimer()
	doc, err := exp.AnalyzeCircuit(c, req)
	if err != nil {
		return nil, nil, err
	}
	end := sink.Begin("encode")
	data := doc.Encode()
	end()
	wall := t.Elapsed()
	phases, stages := splitSpans(sink.rec.Finish())
	return &tracedOp{
		wall:   wall,
		phases: phases,
		stages: stages,
		alloc:  sink.alloc,
		doc:    doc,
		size:   len(data),
	}, data, nil
}

// splitSpans separates one analysis's spans into the analysis's phase
// brackets and the progress stages, which carry counts. A progress stage
// lasts until the next one starts, so the universe's last stage
// (assembly) would also absorb the start of the worstcase phase; the
// universe stages are clipped to the universe phase.
func splitSpans(spans []obs.Span) (phases, stages []obs.Span) {
	universeEnd := int64(-1)
	for _, sp := range spans {
		if sp.Total > 0 {
			stages = append(stages, sp)
			continue
		}
		phases = append(phases, sp)
		if sp.Name == "universe" {
			universeEnd = sp.StartNs + sp.DurNs
		}
	}
	for i, sp := range stages {
		if _, ok := stageMetric[sp.Name]; ok && universeEnd >= 0 && sp.StartNs+sp.DurNs > universeEnd {
			stages[i].DurNs = max(0, universeEnd-sp.StartNs)
		}
	}
	return phases, stages
}

// topPhases are the analysis phases that tile an analysis; their sum over
// the analysis wall is trace.coverage.
var topPhases = []string{"canonicalize", "universe", "worstcase", "procedure1", "encode"}

// layerSums accumulates per-analysis layer figures; report divides by the
// number of analyses.
type layerSums struct {
	n         int
	wall      time.Duration
	ms        map[string]float64 // metric name -> summed milliseconds
	mb        map[string]float64 // metric name -> summed megabytes
	untarget  int
	p1faults  int
	topPhases time.Duration
}

func newLayerSums() *layerSums {
	return &layerSums{ms: map[string]float64{}, mb: map[string]float64{}}
}

// phaseMetric and stageMetric name the metric each span feeds.
var phaseMetric = map[string]string{
	"canonicalize": "circuit.canonicalize_ms",
	"worstcase":    "ndetect.worstcase_ms",
	"procedure1":   "ndetect.procedure1_ms",
	"encode":       "report.encode_ms",
}

var stageMetric = map[string]string{
	"simulate":       "sim.simulate_ms",
	"stuck-at-tsets": "sim.stuck-at-tsets_ms",
	"bridge-tsets":   "sim.bridge-tsets_ms",
	"universe":       "ndetect.assemble_ms",
}

var allocMetric = map[string]string{
	"universe":   "sim.universe_alloc_mb",
	"worstcase":  "ndetect.worstcase_alloc_mb",
	"procedure1": "ndetect.procedure1_alloc_mb",
	"encode":     "report.encode_alloc_mb",
}

func (l *layerSums) add(op *tracedOp) {
	l.n++
	l.wall += op.wall
	l.addSpans(op.phases, op.stages)
	for phase, b := range op.alloc {
		if name, ok := allocMetric[phase]; ok {
			l.mb[name] += float64(b) / 1e6
		}
	}
	l.mb["report.doc_mb"] += float64(op.size) / 1e6
	if op.doc.WorstCase != nil {
		l.untarget += op.doc.WorstCase.Untargeted
	}
	if op.doc.Average != nil {
		l.p1faults += op.doc.Average.Faults
	}
}

// addSpans charges phase and stage spans to their metrics.
func (l *layerSums) addSpans(phases, stages []obs.Span) {
	for _, sp := range phases {
		d := time.Duration(sp.DurNs)
		if name, ok := phaseMetric[sp.Name]; ok {
			l.ms[name] += ms(d)
		}
		for _, top := range topPhases {
			if sp.Name == top {
				l.topPhases += d
			}
		}
	}
	for _, sp := range stages {
		if name, ok := stageMetric[sp.Name]; ok {
			l.ms[name] += ms(time.Duration(sp.DurNs))
		}
	}
}

// reportTimes writes the per-analysis layer times and trace.coverage
// into m.
func (l *layerSums) reportTimes(m map[string]float64) {
	if l.n == 0 {
		return
	}
	for name, v := range l.ms {
		m[name] = v / float64(l.n)
	}
	if l.wall > 0 {
		m["trace.coverage"] = float64(l.topPhases) / float64(l.wall)
	}
}

// reportWork writes the per-analysis allocation, document and fault
// counts into m.
func (l *layerSums) reportWork(m map[string]float64) {
	if l.n == 0 {
		return
	}
	n := float64(l.n)
	for name, v := range l.mb {
		m[name] = v / n
	}
	m["ndetect.untargeted"] = float64(l.untarget) / n
	m["ndetect.procedure1_faults"] = float64(l.p1faults) / n
}

// universeProbe measures the layers that act on a built universe: the
// store codec (timed on the universe, then checked by re-encoding what it
// decoded), the share of distinct T(g) among the untargeted faults, and
// the bytes one stuck-at T-set pass streams.
type universeProbe struct {
	circuits             int
	encode, decode       time.Duration
	artifactBytes        int
	distinct, untargeted int
	streamBytes          float64
	stuckAt              time.Duration // the stuck-at T-set passes of the builds
}

func (p *universeProbe) add(c *circuit.Circuit) error {
	c, err := circuit.Canonicalize(c)
	if err != nil {
		return err
	}
	m := fault.Default()
	stages := obs.NewRecorder()
	u, err := ndetect.BuildUniverse(c, m, ndetect.AnalyzeOptions{Workers: 1, Progress: stages.Progress})
	if err != nil {
		return err
	}
	for _, sp := range stages.Finish() {
		if sp.Name == "stuck-at-tsets" {
			p.stuckAt += time.Duration(sp.DurNs)
		}
	}
	t := obs.StartTimer()
	artifact := store.EncodeUniverse(u)
	p.encode += t.Elapsed()
	t = obs.StartTimer()
	back, err := store.DecodeUniverse(c, m, artifact)
	p.decode += t.Elapsed()
	if err != nil {
		return fmt.Errorf("%s: decode universe: %w", c.Name, err)
	}
	if !bytes.Equal(store.EncodeUniverse(back), artifact) {
		return fmt.Errorf("%s: decoded universe differs from the encoded one", c.Name)
	}
	p.circuits++
	p.artifactBytes += len(artifact)

	seed := maphash.MakeSeed()
	seen := map[uint64]bool{}
	for _, g := range u.Untargeted {
		var h maphash.Hash
		h.SetSeed(seed)
		for _, w := range g.T.Words() {
			var b [8]byte
			for i := range b {
				b[i] = byte(w >> (8 * i))
			}
			h.Write(b[:])
		}
		seen[h.Sum64()] = true
	}
	p.distinct += len(seen)
	p.untargeted += len(u.Untargeted)

	// Counted as BenchmarkEngineStream counts it: one word block per
	// faulted line plus the good-machine block, over the vector space.
	lines := map[int]bool{}
	for _, f := range u.StuckAt() {
		lines[f.Node] = true
	}
	words := (c.VectorSpaceSize() + 63) / 64
	p.streamBytes += float64((len(lines) + 1) * words * 8)
	return nil
}

// report writes the probe's metrics into m.
func (p *universeProbe) report(m map[string]float64) {
	if p.circuits == 0 {
		return
	}
	n := float64(p.circuits)
	m["store.universe_encode_ms"] = ms(p.encode) / n
	m["store.universe_decode_ms"] = ms(p.decode) / n
	m["store.artifact_mb"] = float64(p.artifactBytes) / 1e6 / n
	if p.untargeted > 0 {
		m["ndetect.tset_distinct_ratio"] = float64(p.distinct) / float64(p.untargeted)
	}
	if p.stuckAt > 0 {
		m["sim.stream_mb_per_s"] = p.streamBytes / 1e6 / p.stuckAt.Seconds()
	}
}

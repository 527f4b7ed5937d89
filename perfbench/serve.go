package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"ndetect/internal/circuit"
	"ndetect/internal/exp"
	"ndetect/internal/obs"
	"ndetect/internal/report"
	"ndetect/internal/service"
	"ndetect/internal/store"
)

// serve-mixed: a closed loop, one client, against the daemon's serving
// stack in process — service.Manager (Workers = CPUs, artifact store in a
// temporary directory) behind service.Server's handler on a loopback
// listener. Circuits travel as "net" source, as an external client sends
// them. The classes, shuffled in blocks of 20 that hold the mix exactly:
//
//	hit    (16) repeats an average analysis completed during setup: a
//	       result cache hit plus a multi-MB result transfer
//	fresh  (3) an average analysis with a new Procedure 1 seed on a
//	       circuit whose universe the store holds: universe read and
//	       decode, compute, result write
//	new    (1) a worst-case analysis of a circuit generated from the seed
//	       and never seen before: universe build, universe and result
//	       writes
//
// The median request is a hit and the 90th percentile an analysis. An
// open loop with Poisson arrivals at half the daemon's capacity was
// tried first: how many hits overlapped an analysis, and how many
// analyses queued, moved both percentiles by 25-60% between runs of
// 25 s.
const (
	// serveLimit is the latency a request must meet to count toward
	// goodput.
	serveLimit = 2 * time.Second
	// pollEvery paces GET /jobs/{id}/result while a job runs.
	pollEvery = 5 * time.Millisecond
)

// hitCircuit and freshCircuit are the circuits of the hit and fresh
// classes: fetch's average document is 3.2 MB, and log's universe is
// among the largest of the mid-size circuits.
const hitCircuit, freshCircuit = "fetch", "log"

var (
	// classWeights is the mix per block of blockSize requests.
	classWeights = []struct {
		class  string
		weight int
	}{{"hit", 16}, {"fresh", 3}, {"new", 1}}
	// stageLabels are the span names the daemon's stage histograms carry.
	stageLabels = []string{"canonicalize", "universe", "simulate", "stuck-at-tsets", "bridge-tsets", "worstcase", "procedure1", "encode"}
	storeOps    = []string{"universes_get", "universes_put", "results_get", "results_put"}
)

// serveReq is one request of the mix: its POST /jobs body, and what the
// in-process exp.AnalyzeCircuit needs to compute the same document.
type serveReq struct {
	class  string
	body   []byte
	source string
	req    exp.AnalysisRequest
	want   []byte // the document, for requests whose reference is known up front
}

func newServeReq(class, source string, req exp.AnalysisRequest) (*serveReq, error) {
	body, err := json.Marshal(service.SubmitRequest{
		CircuitRef: service.CircuitRef{Format: "net", Source: source},
		Analysis:   string(req.Kind),
		Options:    report.Options{NMax: req.NMax, K: req.K, Seed: req.Seed},
	})
	if err != nil {
		return nil, err
	}
	return &serveReq{class: class, body: body, source: source, req: req}, nil
}

// reference computes r's document with exp.AnalyzeCircuit in process.
func (r *serveReq) reference(workers int) ([]byte, error) {
	c, err := circuit.ParseString(r.source)
	if err != nil {
		return nil, err
	}
	req := r.req
	req.Workers = workers
	doc, err := exp.AnalyzeCircuit(c, req)
	if err != nil {
		return nil, err
	}
	return doc.Encode(), nil
}

// daemon is the system under test plus its client.
type daemon struct {
	dir    string
	store  *store.Store
	m      *service.Manager
	srv    *http.Server
	served chan struct{} // closed when Serve returns
	base   string
	client *http.Client

	hit         *serveReq // the hit class's request, with its document
	freshSource string    // the fresh class's circuit
}

func startDaemon(workdir string, wrap func(http.Handler) http.Handler) (*daemon, error) {
	dir, err := os.MkdirTemp(workdir, "perfbench-store-")
	if err != nil {
		return nil, err
	}
	st, err := store.Open(dir, store.Options{})
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	m := service.NewManager(service.Config{
		Workers:  runtime.NumCPU(),
		Store:    st,
		MaxQueue: service.DefaultMaxQueue,
		// Room for every job of a run, so Manager.Trace still has each
		// one when the run ends.
		TraceDepth: 1 << 12,
	})
	handler := service.NewServer(m).Handler()
	if wrap != nil {
		handler = wrap(handler)
	}
	d := &daemon{
		dir:    dir,
		store:  st,
		m:      m,
		srv:    &http.Server{Handler: handler},
		served: make(chan struct{}),
		base:   "http://" + ln.Addr().String(),
		client: &http.Client{
			Transport: &http.Transport{MaxConnsPerHost: runtime.NumCPU(), MaxIdleConnsPerHost: runtime.NumCPU()},
			Timeout:   2 * time.Minute,
		},
	}
	go func() {
		defer close(d.served)
		d.srv.Serve(ln)
	}()
	return d, nil
}

// stop shuts the daemon down and removes its store.
func (d *daemon) stop() error {
	d.client.CloseIdleConnections()
	err := d.srv.Close()
	<-d.served
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	if derr := d.m.Drain(ctx); err == nil {
		err = derr
	}
	if cerr := d.store.Close(); err == nil {
		err = cerr
	}
	if rerr := os.RemoveAll(d.dir); err == nil {
		err = rerr
	}
	return err
}

// setupServe starts a daemon and warms it: the fresh class's universe is
// built into the store, and the hit request is computed by the daemon and
// checked against exp.AnalyzeCircuit in process.
func setupServe(cfg config) (_ *daemon, err error) {
	d, err := startDaemon(cfg.workdir, cfg.wrap)
	if err != nil {
		return nil, err
	}
	defer func() {
		if err != nil {
			d.stop()
		}
	}()
	if d.freshSource, err = namedSource(freshCircuit); err != nil {
		return nil, err
	}
	hitSource, err := namedSource(hitCircuit)
	if err != nil {
		return nil, err
	}
	warm, err := newServeReq("warm", d.freshSource, exp.AnalysisRequest{Kind: exp.WorstCaseAnalysis})
	if err != nil {
		return nil, err
	}
	if d.hit, err = newServeReq("hit", hitSource, averageRequest(rand.New(rand.NewSource(cfg.seed)))); err != nil {
		return nil, err
	}
	var wg sync.WaitGroup
	var warmErr error
	wg.Add(1)
	go func() {
		defer wg.Done()
		_, _, warmErr = d.analyze(warm.body)
	}()
	served, _, err := d.analyze(d.hit.body)
	wg.Wait()
	if err == nil {
		err = warmErr
	}
	if err != nil {
		return nil, err
	}
	want, err := d.hit.reference(0)
	if err != nil {
		return nil, err
	}
	if !bytes.Equal(served, want) {
		return nil, fmt.Errorf("setup: the served hit document differs from exp.AnalyzeCircuit's")
	}
	d.hit.want = want
	return d, nil
}

func namedSource(name string) (string, error) {
	c, err := namedCircuit(name)
	if err != nil {
		return "", err
	}
	return c.WriteString(), nil
}

func averageRequest(rng *rand.Rand) exp.AnalysisRequest {
	return exp.AnalysisRequest{Kind: exp.AverageAnalysis, NMax: 10, K: 1000, Seed: procedure1Seed(rng)}
}

// timing is what the client measured for one request.
type timing struct {
	id             string
	submit, result time.Duration // POST /jobs; the GET that returned the document
}

// analyze submits one request and polls it to its document.
func (d *daemon) analyze(body []byte) ([]byte, timing, error) {
	var tm timing
	t := obs.StartTimer()
	resp, err := d.client.Post(d.base+"/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, tm, err
	}
	var sub service.SubmitResponse
	err = json.NewDecoder(resp.Body).Decode(&sub)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusAccepted {
		return nil, tm, fmt.Errorf("POST /jobs: %s", resp.Status)
	}
	if err != nil {
		return nil, tm, fmt.Errorf("POST /jobs: %w", err)
	}
	tm.id, tm.submit = sub.ID, t.Elapsed()
	for {
		t = obs.StartTimer()
		resp, err := d.client.Get(d.base + "/jobs/" + sub.ID + "/result")
		if err != nil {
			return nil, tm, err
		}
		data, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			return nil, tm, err
		}
		switch resp.StatusCode {
		case http.StatusOK:
			tm.result = t.Elapsed()
			return data, tm, nil
		case http.StatusAccepted:
			time.Sleep(pollEvery)
		default:
			return nil, tm, fmt.Errorf("GET result: %s", resp.Status)
		}
	}
}

// arrival is one request of the loop and what happened to it.
type arrival struct {
	r *serveReq

	latency time.Duration
	tm      timing
	err     error
	sum     [sha256.Size]byte // of the served document
	ok      bool              // served and verified
}

// blockSize is the number of requests that hold the mix exactly.
const blockSize = 20

// loop sends requests one after another, each after the previous
// document is in hand, in whole blocks until budget has passed. Within a
// block the classes are shuffled; seed orders them and, with variant,
// draws the request identities (Procedure 1 seeds, generated circuits).
// Latency runs from sending a request to its document in hand; checking
// the bytes happens after. Documents without a reference known up front
// are checked by verify.
func (d *daemon) loop(seed, variant int64, budget time.Duration) ([]*arrival, error) {
	order := rand.New(rand.NewSource(seed + 1))
	ident := rand.New(rand.NewSource(seed + 2 + variant))
	var block []string
	for _, cw := range classWeights {
		for i := 0; i < cw.weight; i++ {
			block = append(block, cw.class)
		}
	}
	var out []*arrival
	start := obs.StartTimer()
	for len(out) == 0 || start.Elapsed() < budget {
		order.Shuffle(len(block), func(a, b int) { block[a], block[b] = block[b], block[a] })
		for _, class := range block {
			r := d.hit
			var err error
			switch class {
			case "fresh":
				r, err = newServeReq(class, d.freshSource, averageRequest(ident))
			case "new":
				var c *circuit.Circuit
				if c, err = generateCircuit(ident, fmt.Sprintf("gen%d_%d_%d", seed, variant, len(out))); err != nil {
					return nil, err
				}
				r, err = newServeReq(class, c.WriteString(), exp.AnalysisRequest{Kind: exp.WorstCaseAnalysis})
			}
			if err != nil {
				return nil, err
			}
			a := &arrival{r: r}
			t := obs.StartTimer()
			data, tm, err := d.analyze(r.body)
			a.latency, a.tm, a.err = t.Elapsed(), tm, err
			switch {
			case err != nil:
			case r.want != nil:
				a.ok = bytes.Equal(data, r.want)
			default:
				a.sum = sha256.Sum256(data)
			}
			out = append(out, a)
		}
	}
	return out, nil
}

// blockRates returns, per block, verified documents and those within
// serveLimit per second of the block's latency.
func blockRates(arrivals []*arrival) (ok, inLimit, busy []float64) {
	for i := 0; i+blockSize <= len(arrivals); i += blockSize {
		var n, in int
		var t time.Duration
		for _, a := range arrivals[i : i+blockSize] {
			t += a.latency
			if a.ok {
				n++
				if a.latency <= serveLimit {
					in++
				}
			}
		}
		ok = append(ok, float64(n)/t.Seconds())
		inLimit = append(inLimit, float64(in)/t.Seconds())
		busy = append(busy, t.Seconds())
	}
	return ok, inLimit, busy
}

// generateCircuit draws a random combinational circuit: 13 inputs and 80
// multi-input gates, each reading recent signals, with every
// unread gate a primary output.
func generateCircuit(rng *rand.Rand, name string) (*circuit.Circuit, error) {
	kinds := []circuit.Kind{circuit.And, circuit.Nand, circuit.Or, circuit.Nor, circuit.Xor}
	b := circuit.NewBuilder(name)
	inputs := 13 + rng.Intn(2)
	var sigs []string
	for i := 0; i < inputs; i++ {
		sigs = append(sigs, fmt.Sprintf("i%d", i))
		b.Input(sigs[i])
	}
	read := map[string]bool{}
	gates := 70 + rng.Intn(20)
	for g := 0; g < gates; g++ {
		fanin := 2 + rng.Intn(2)
		var ins []string
		// The first gates read the inputs in order, so every input is used.
		for j := 0; j < fanin && 2*g+j < inputs; j++ {
			ins = append(ins, sigs[2*g+j])
		}
		window := len(sigs)
		if window > 2*inputs {
			window = 2 * inputs
		}
		for len(ins) < fanin {
			s := sigs[len(sigs)-1-rng.Intn(window)]
			dup := false
			for _, x := range ins {
				dup = dup || x == s
			}
			if !dup {
				ins = append(ins, s)
			}
		}
		out := fmt.Sprintf("g%d", g)
		b.Gate(kinds[rng.Intn(len(kinds))], out, ins...)
		for _, s := range ins {
			read[s] = true
		}
		sigs = append(sigs, out)
	}
	for _, s := range sigs[inputs:] {
		if !read[s] {
			b.Output(s)
		}
	}
	return b.Build()
}

// verify compares each served document whose reference was not known
// up front against exp.AnalyzeCircuit's, run in process. With ref non-nil the
// references run one at a time, traced, and feed ref's per-analysis work
// figures; otherwise they run on every CPU.
func verify(arrivals []*arrival, ref *layerSums) error {
	var todo []*arrival
	for _, a := range arrivals {
		if a.err == nil && a.r.want == nil {
			todo = append(todo, a)
		}
	}
	check := func(a *arrival) error {
		if ref == nil {
			want, err := a.r.reference(1)
			if err != nil {
				return err
			}
			a.ok = sha256.Sum256(want) == a.sum
			return nil
		}
		c, err := circuit.ParseString(a.r.source)
		if err != nil {
			return err
		}
		req := a.r.req
		req.Workers = 1
		op, want, err := analyzeTraced(c, req, nil)
		if err != nil {
			return err
		}
		ref.add(op)
		a.ok = sha256.Sum256(want) == a.sum
		return nil
	}
	workers := runtime.NumCPU()
	if ref != nil {
		workers = 1
	}
	next := make(chan *arrival)
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		go func() {
			var first error
			for a := range next {
				if err := check(a); err != nil && first == nil {
					first = err
				}
			}
			errs <- first
		}()
	}
	for _, a := range todo {
		next <- a
	}
	close(next)
	var first error
	for w := 0; w < workers; w++ {
		if err := <-errs; err != nil && first == nil {
			first = err
		}
	}
	return first
}

func runServe(cfg config) (*outcome, error) {
	d, setup, err := repeatSetup(cfg.trace, func() (*daemon, error) { return setupServe(cfg) }, (*daemon).stop)
	if err != nil {
		return nil, err
	}
	var out *outcome
	if cfg.trace {
		out, err = serveTraced(cfg, d)
	} else {
		out, err = serveEndToEnd(cfg, d)
		if out != nil {
			out.metrics["setup_s"] = setup
		}
	}
	if serr := d.stop(); err == nil {
		err = serr
	}
	return out, err
}

// tally counts the verified documents and their latencies.
func tally(arrivals []*arrival) (ok int, latencies []float64) {
	for _, a := range arrivals {
		if a.ok {
			ok++
			latencies = append(latencies, ms(a.latency))
		}
	}
	return ok, latencies
}

func serveEndToEnd(cfg config, d *daemon) (*outcome, error) {
	arrivals, err := d.loop(cfg.seed, 0, cfg.budget)
	if err != nil {
		return nil, err
	}
	if err := verify(arrivals, nil); err != nil {
		return nil, err
	}
	ok, lat := tally(arrivals)
	perSec, inLimit, _ := blockRates(arrivals)
	return &outcome{
		attempted: len(arrivals),
		failed:    len(arrivals) - ok,
		metrics: map[string]float64{
			"analyses_per_s": median(perSec),
			"latency_ms_p50": quantile(lat, 0.5),
			"latency_ms_p90": quantile(lat, 0.9),
			"goodput_rps":    median(inLimit),
		},
	}, nil
}

// daemonState is what the benchmark reads from the daemon around the
// traced half: GET /metrics histograms and the counters.
type daemonState struct {
	hist     map[string]obs.HistogramSnapshot
	counters service.Counters
	store    store.Counters
}

func (d *daemon) state() (*daemonState, error) {
	resp, err := d.client.Get(d.base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET /metrics: %s", resp.Status)
	}
	hist, err := parseHistograms(resp.Body)
	if err != nil {
		return nil, err
	}
	sc, _ := d.m.StoreCounters()
	return &daemonState{hist: hist, counters: d.m.Counters(), store: sc}, nil
}

// serveTraced spends the first half of the budget untraced and the
// second traced. The daemon's counters, traces and /metrics are read
// only between and after the halves, never while requests run.
func serveTraced(cfg config, d *daemon) (*outcome, error) {
	half := cfg.budget / 2
	plain, err := d.loop(cfg.seed, 0, half)
	if err != nil {
		return nil, err
	}
	if err := verify(plain, nil); err != nil {
		return nil, err
	}
	before, err := d.state()
	if err != nil {
		return nil, err
	}
	traced, err := d.loop(cfg.seed, 1, half)
	if err != nil {
		return nil, err
	}
	after, err := d.state()
	if err != nil {
		return nil, err
	}

	m := map[string]float64{}
	jobs := newLayerSums()
	seen := map[string]bool{}
	for _, a := range traced {
		if a.err != nil || a.r.class == "hit" || seen[a.tm.id] {
			continue
		}
		seen[a.tm.id] = true
		spans, ok := d.m.Trace(a.tm.id)
		if !ok {
			return nil, fmt.Errorf("no trace for job %s", a.tm.id)
		}
		phases, stages := splitSpans(spans)
		jobs.n++
		jobs.addSpans(phases, stages)
	}
	jobs.reportTimes(m)

	ref := newLayerSums()
	if err := verify(traced, ref); err != nil {
		return nil, err
	}
	ref.reportWork(m)

	// The universes the traced half decoded (fresh) and built (new).
	var probe universeProbe
	sources := []string{d.freshSource}
	for _, a := range traced {
		if a.r.class == "new" {
			sources = append(sources, a.r.source)
		}
	}
	for _, src := range sources {
		c, err := circuit.ParseString(src)
		if err != nil {
			return nil, err
		}
		if err := probe.add(c); err != nil {
			return nil, err
		}
	}
	probe.report(m)

	hist := func(name string) obs.HistogramSnapshot { return diffHistogram(after.hist[name], before.hist[name]) }
	for _, label := range stageLabels {
		m["service.stage."+label+"_ms"] = meanMs(hist("ndetectd_stage_duration_seconds|" + label))
	}
	for _, op := range storeOps {
		m["store."+op+"_ms"] = meanMs(hist("ndetectd_store_op_duration_seconds|" + op))
	}
	admit, job := hist("ndetectd_admission_wait_seconds"), hist("ndetectd_job_duration_seconds")
	m["service.admission_wait_ms_p90"] = quantileMs(admit, 0.9)
	m["service.job_ms_p90"] = quantileMs(job, 0.9)
	if job.Sum > 0 {
		m["trace.coverage"] = (float64(jobs.topPhases)/1e9 + admit.Sum) / job.Sum
	}

	c0, c1 := before.counters, after.counters
	if sub := float64(c1.Submitted - c0.Submitted); sub > 0 {
		m["service.cache_hit_ratio"] = float64(c1.CacheHits-c0.CacheHits) / sub
		m["service.store_hit_ratio"] = float64(c1.StoreHits-c0.StoreHits) / sub
	}
	m["service.computed"] = float64(c1.Computed - c0.Computed)
	m["service.coalesced"] = float64(c1.Coalesced - c0.Coalesced)
	m["service.shed_ratio"] = float64(c1.ShedQueue+c1.ShedQuota-c0.ShedQueue-c0.ShedQuota) / float64(len(traced))
	m["store.universe_hits"] = float64(after.store.Universes.Hits - before.store.Universes.Hits)
	m["store.bytes_written"] = float64(after.store.Bytes - before.store.Bytes)

	var submit, result []float64
	for _, a := range traced {
		if a.err == nil {
			submit = append(submit, ms(a.tm.submit))
			result = append(result, ms(a.tm.result))
		}
	}
	m["service.http_submit_ms_p50"] = median(submit)
	m["service.http_result_ms_p50"] = median(result)
	// Both halves hold the mix exactly, block by block.
	_, _, busyPlain := blockRates(plain)
	_, _, busyTraced := blockRates(traced)
	m["trace.overhead_ratio"] = median(busyTraced)/median(busyPlain) - 1

	okPlain, _ := tally(plain)
	okTraced, _ := tally(traced)
	attempted := len(plain) + len(traced)
	return &outcome{attempted: attempted, failed: attempted - okPlain - okTraced, metrics: m}, nil
}

// parseHistograms reads the histogram families of a Prometheus text
// exposition, keyed "family" or "family|label value".
func parseHistograms(r io.Reader) (map[string]obs.HistogramSnapshot, error) {
	type acc struct {
		bounds []float64
		cum    []uint64
		snap   obs.HistogramSnapshot
	}
	accs := map[string]*acc{}
	get := func(key string) *acc {
		if accs[key] == nil {
			accs[key] = &acc{}
		}
		return accs[key]
	}
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		series, value, ok := strings.Cut(line, " ")
		if !ok {
			return nil, fmt.Errorf("metrics: malformed line %q", line)
		}
		name, labels, _ := strings.Cut(strings.TrimSuffix(series, "}"), "{")
		var le, label string
		// Label values here never contain commas or quotes.
		for _, kv := range strings.Split(labels, ",") {
			if kv == "" {
				continue
			}
			k, v, _ := strings.Cut(kv, "=")
			v, err := strconv.Unquote(v)
			if err != nil {
				return nil, fmt.Errorf("metrics: label in %q: %w", line, err)
			}
			if k == "le" {
				le = v
			} else {
				label = v
			}
		}
		for _, suffix := range []string{"_bucket", "_sum", "_count"} {
			family, ok := strings.CutSuffix(name, suffix)
			if !ok {
				continue
			}
			key := family
			if label != "" {
				key += "|" + label
			}
			v, err := strconv.ParseFloat(value, 64)
			if err != nil {
				return nil, fmt.Errorf("metrics: value in %q: %w", line, err)
			}
			a := get(key)
			switch suffix {
			case "_bucket":
				if le != "+Inf" {
					b, err := strconv.ParseFloat(le, 64)
					if err != nil {
						return nil, fmt.Errorf("metrics: le in %q: %w", line, err)
					}
					a.bounds = append(a.bounds, b)
				}
				a.cum = append(a.cum, uint64(v))
			case "_sum":
				a.snap.Sum = v
			case "_count":
				a.snap.Count = uint64(v)
			}
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	out := map[string]obs.HistogramSnapshot{}
	for key, a := range accs {
		if len(a.cum) == 0 || len(a.cum) != len(a.bounds)+1 {
			continue // a counter or gauge whose name ends like a histogram series
		}
		a.snap.Bounds, a.snap.Cumulative = a.bounds, a.cum
		out[key] = a.snap
	}
	return out, nil
}

// diffHistogram returns the observations made between two snapshots of
// one histogram.
func diffHistogram(after, before obs.HistogramSnapshot) obs.HistogramSnapshot {
	if len(before.Cumulative) != len(after.Cumulative) {
		return after
	}
	d := obs.HistogramSnapshot{
		Bounds:     after.Bounds,
		Cumulative: make([]uint64, len(after.Cumulative)),
		Count:      after.Count - before.Count,
		Sum:        after.Sum - before.Sum,
	}
	for i := range d.Cumulative {
		d.Cumulative[i] = after.Cumulative[i] - before.Cumulative[i]
	}
	return d
}

func meanMs(s obs.HistogramSnapshot) float64 {
	if s.Count == 0 {
		return 0
	}
	return 1e3 * s.Sum / float64(s.Count)
}

func quantileMs(s obs.HistogramSnapshot, q float64) float64 {
	v := s.Quantile(q)
	if math.IsNaN(v) {
		return 0
	}
	return 1e3 * v
}

// Command perfbench is the ndetect benchmark. It runs one named workload
// against the program, checks every document the program produces, and
// prints one JSON result line:
//
//	{"correct": true, "attempted": 42, "failed": 0, "metrics": {...}}
//
// Run it from the root of a checkout through the wrapper, which keeps the
// Go build cache and every temporary file inside the checkout:
//
//	bash perfbench/run.sh --workload wc-large --seed 1 --seconds 20 --trace 0
//
// Workloads (BENCHMARK.json records why each was chosen):
//
//	wc-large     closed loop, one client: worst-case analyses of dvram,
//	             s1a and keyb at Workers 1, each followed by Encode
//	avg-mid      closed loop, one client: average analyses (Def 1, NMax
//	             10, K 1000) of bbara, log, fetch, ex4 and opus at Workers 1
//	serve-mixed  closed loop, one client, against an in-process
//	             service.Manager behind its HTTP handler on loopback: a
//	             mix of result-cache hits, fresh Procedure 1 seeds over a
//	             stored universe, and never-seen circuits
//
// Every input — Procedure 1 seeds, the order of the request mix and the
// generated circuits — derives from --seed; the program receives only the
// generated inputs. --print-digests regenerates digests.json, the
// committed worst-case document digests, after a deliberate change to the
// document format.
//
// --trace 0 measures the end-to-end metrics with tracing off. --trace 1
// measures the per-layer metrics: it times calls into the program's
// public functions and the hooks it already has (AnalysisRequest.Trace
// and Progress, Analysis.Encode, the store codec, Manager.Trace and
// Counters, GET /metrics), and spends half its time untraced so that the
// tracing overhead is measured too. A layer the workload does not
// exercise reports 0.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"

	"ndetect/internal/obs"
)

// decl declares one reported metric.
type decl struct {
	name, unit string
}

// endToEnd are the metrics of a --trace 0 run; every workload reports
// every one of them.
var endToEnd = []decl{
	{"setup_s", "s"},
	{"analyses_per_s", "1/s"},
	{"latency_ms_p50", "ms"},
	{"latency_ms_p90", "ms"},
	{"goodput_rps", "1/s"},
	{"peak_rss_mb", "MB"},
}

// perLayer are the metrics of a --trace 1 run. Layer times and sizes are
// means per analysis; names are prefixed with the module that does the
// work.
var perLayer = []decl{
	{"circuit.canonicalize_ms", "ms"},
	{"sim.simulate_ms", "ms"},
	{"sim.stuck-at-tsets_ms", "ms"},
	{"sim.bridge-tsets_ms", "ms"},
	{"sim.stream_mb_per_s", "MB/s"},
	{"sim.universe_alloc_mb", "MB"},
	{"ndetect.assemble_ms", "ms"},
	{"ndetect.worstcase_ms", "ms"},
	{"ndetect.worstcase_alloc_mb", "MB"},
	{"ndetect.untargeted", "count"},
	{"ndetect.tset_distinct_ratio", "ratio"},
	{"ndetect.procedure1_ms", "ms"},
	{"ndetect.procedure1_alloc_mb", "MB"},
	{"ndetect.procedure1_faults", "count"},
	{"report.encode_ms", "ms"},
	{"report.encode_alloc_mb", "MB"},
	{"report.doc_mb", "MB"},
	{"store.universe_encode_ms", "ms"},
	{"store.universe_decode_ms", "ms"},
	{"store.artifact_mb", "MB"},
	{"store.universes_get_ms", "ms"},
	{"store.universes_put_ms", "ms"},
	{"store.results_get_ms", "ms"},
	{"store.results_put_ms", "ms"},
	{"store.universe_hits", "count"},
	{"store.bytes_written", "bytes"},
	{"service.http_submit_ms_p50", "ms"},
	{"service.http_result_ms_p50", "ms"},
	{"service.cache_hit_ratio", "ratio"},
	{"service.store_hit_ratio", "ratio"},
	{"service.computed", "count"},
	{"service.coalesced", "count"},
	{"service.shed_ratio", "ratio"},
	{"service.admission_wait_ms_p90", "ms"},
	{"service.job_ms_p90", "ms"},
	{"service.stage.canonicalize_ms", "ms"},
	{"service.stage.universe_ms", "ms"},
	{"service.stage.simulate_ms", "ms"},
	{"service.stage.stuck-at-tsets_ms", "ms"},
	{"service.stage.bridge-tsets_ms", "ms"},
	{"service.stage.worstcase_ms", "ms"},
	{"service.stage.procedure1_ms", "ms"},
	{"service.stage.encode_ms", "ms"},
	{"trace.coverage", "ratio"},
	{"trace.overhead_ratio", "ratio"},
}

// config is one invocation.
type config struct {
	workload string
	seed     int64
	budget   time.Duration // how long the run measures
	trace    bool
	workdir  string // directory for temporary artifact stores
	// wrap, when set, wraps the daemon's HTTP handler; tests inject
	// faults with it.
	wrap func(http.Handler) http.Handler
}

// outcome is what a workload run returns: the checked operation counts
// and the metric values by name.
type outcome struct {
	attempted, failed int
	metrics           map[string]float64
}

// workloads maps each workload name to its runner.
var workloads = map[string]func(config) (*outcome, error){
	"wc-large":    func(cfg config) (*outcome, error) { return runBatch(cfg, batchWorkloads["wc-large"]) },
	"avg-mid":     func(cfg config) (*outcome, error) { return runBatch(cfg, batchWorkloads["avg-mid"]) },
	"serve-mixed": runServe,
}

func main() {
	workload := flag.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	seed := flag.Int64("seed", 1, "seed every generated input derives from")
	seconds := flag.Int("seconds", 20, "how long the run measures")
	trace := flag.Int("trace", 0, "0: end-to-end metrics with tracing off; 1: per-layer metrics")
	workdir := flag.String("workdir", "", "directory for temporary artifact stores (default: the system temp dir)")
	printDigests := flag.Bool("print-digests", false, "print the worst-case document digests of every named circuit and exit")
	flag.Parse()

	if *printDigests {
		if err := writeDigests(os.Stdout); err != nil {
			fail(err)
		}
		return
	}
	run, ok := workloads[*workload]
	if !ok {
		fail(fmt.Errorf("unknown workload %q (want one of %s)", *workload, strings.Join(workloadNames(), ", ")))
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fail(fmt.Errorf("want --seconds >= 1 and --trace 0 or 1"))
	}
	cfg := config{
		workload: *workload,
		seed:     *seed,
		budget:   time.Duration(*seconds) * time.Second,
		trace:    *trace == 1,
		workdir:  *workdir,
	}
	out, err := run(cfg)
	if err != nil {
		fail(err)
	}
	if !cfg.trace {
		out.metrics["peak_rss_mb"] = peakRSSMB()
	}
	line, err := resultLine(out, cfg.trace)
	if err != nil {
		fail(err)
	}
	fmt.Println(string(line))
	if out.failed > 0 {
		os.Exit(1)
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for name := range workloads {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// resultLine renders the final JSON line. An end-to-end run must have
// measured every end-to-end metric; a traced run reports every per-layer
// metric, 0 for layers the workload does not exercise.
func resultLine(out *outcome, trace bool) ([]byte, error) {
	type metric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	decls := endToEnd
	if trace {
		decls = perLayer
	}
	metrics := make(map[string]metric, len(decls))
	for _, d := range decls {
		v, ok := out.metrics[d.name]
		if !ok && !trace {
			return nil, fmt.Errorf("workload did not measure %s", d.name)
		}
		metrics[d.name] = metric{Value: v, Unit: d.unit}
	}
	for name := range out.metrics {
		if _, ok := metrics[name]; !ok {
			return nil, fmt.Errorf("undeclared metric %s", name)
		}
	}
	return json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{out.failed == 0 && out.attempted > 0, out.attempted, out.failed, metrics})
}

// peakRSSMB reads the process's peak resident set size (VmHWM).
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err == nil {
				return kb / 1024
			}
		}
	}
	return 0
}

// Setup is repeated so that setup_s is a median: at least minSetups
// times, and up to maxSetups while the repetitions so far took under
// cheapSetup in total. A traced run sets up once.
const (
	minSetups  = 3
	maxSetups  = 9
	cheapSetup = time.Second
)

// repeatSetup runs setup as described above, releasing every result but
// the last, and returns the last with the median setup time in seconds.
func repeatSetup[T any](trace bool, setup func() (T, error), release func(T) error) (T, float64, error) {
	var last T
	var times []float64
	var total time.Duration
	for len(times) < maxSetups && (len(times) < minSetups || total < cheapSetup) {
		if len(times) > 0 {
			if err := release(last); err != nil {
				return last, 0, err
			}
		}
		t := obs.StartTimer()
		x, err := setup()
		if err != nil {
			return last, 0, err
		}
		d := t.Elapsed()
		last, total = x, total+d
		times = append(times, d.Seconds())
		if trace {
			break
		}
	}
	return last, median(times), nil
}

// quantile returns the q-quantile of samples by linear interpolation
// between closest ranks (0 for no samples).
func quantile(samples []float64, q float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (s[lo+1]-s[lo])*(pos-float64(lo))
}

func median(samples []float64) float64 { return quantile(samples, 0.5) }

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

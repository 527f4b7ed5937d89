package main

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"sort"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"ndetect/internal/circuit"
	"ndetect/internal/exp"
	"ndetect/internal/obs"
)

// TestBenchmarkJSONMatchesCode pins BENCHMARK.json to the workloads and
// metrics the program reports.
func TestBenchmarkJSONMatchesCode(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }       `json:"workloads"`
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	sort.Strings(names)
	if got, want := strings.Join(names, " "), strings.Join(workloadNames(), " "); got != want {
		t.Errorf("BENCHMARK.json workloads %q, program runs %q", got, want)
	}
	same := func(kind string, got []struct{ Name, Unit string }, want []decl) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, the program reports %d", kind, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json has %s (%s), the program reports %s (%s)",
					kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	same("end_to_end", b.EndToEnd, endToEnd)
	same("per_layer", b.PerLayer, perLayer)
}

// TestAttribution injects a fixed delay into one benchmark-side layer
// wrapper at a time: that layer's metric and the analysis latency must
// move by about the delay, and no other layer's metric may move.
func TestAttribution(t *testing.T) {
	c, err := namedCircuit("bbara")
	if err != nil {
		t.Fatal(err)
	}
	req := exp.AnalysisRequest{Kind: exp.AverageAnalysis, NMax: 10, K: 100, Seed: 1, Workers: 1}
	const delay = 80 * time.Millisecond
	want := ms(delay)
	base := layerMedians(t, c, req, nil)
	for _, tc := range []struct{ phase, metric string }{
		{"worstcase", "ndetect.worstcase_ms"},
		{"encode", "report.encode_ms"},
	} {
		got := layerMedians(t, c, req, map[string]time.Duration{tc.phase: delay})
		for _, name := range sortedNames(base) {
			moved := got[name] - base[name]
			if name == tc.metric || name == "latency" {
				if math.Abs(moved-want) > want/4 {
					t.Errorf("delay in %s: %s moved %.1f ms, want %.1f", tc.phase, name, moved, want)
				}
			} else if math.Abs(moved) > want/4 {
				t.Errorf("delay in %s: %s moved %.1f ms, want ~0", tc.phase, name, moved)
			}
		}
	}
}

// layerMedians runs traced analyses and returns the median of each layer
// time metric and of the analysis latency.
func layerMedians(t *testing.T, c *circuit.Circuit, req exp.AnalysisRequest, delay map[string]time.Duration) map[string]float64 {
	t.Helper()
	samples := map[string][]float64{}
	for i := 0; i < 15; i++ {
		op, _, err := analyzeTraced(c, req, delay)
		if err != nil {
			t.Fatal(err)
		}
		l := newLayerSums()
		l.add(op)
		m := map[string]float64{}
		l.reportTimes(m)
		for name, v := range m {
			if strings.HasSuffix(name, "_ms") {
				samples[name] = append(samples[name], v)
			}
		}
		samples["latency"] = append(samples["latency"], ms(op.wall))
	}
	out := map[string]float64{}
	for name, s := range samples {
		out[name] = median(s)
	}
	return out
}

func sortedNames(m map[string]float64) []string {
	names := make([]string, 0, len(m))
	for name := range m {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// TestBatchCountsWrongDocuments shows the check in the timed loop is
// live: every analysis passes against the committed digests and the
// setup references, and one whose document no longer matches what is
// expected of it is counted as failed.
func TestBatchCountsWrongDocuments(t *testing.T) {
	for _, w := range []batchWorkload{
		{exp.WorstCaseAnalysis, []string{"bbara", "opus"}, time.Minute},
		{exp.AverageAnalysis, []string{"bbara"}, time.Minute},
	} {
		in, err := setupBatch(w, 1)
		if err != nil {
			t.Fatal(err)
		}
		run, err := loopBatch(in, w, 0, false, nil)
		if err != nil {
			t.Fatal(err)
		}
		if run.failed != 0 {
			t.Fatalf("%s: %d of %d documents differ from their references", w.kind, run.failed, run.attempted)
		}
		in[0].want[0] ^= 1
		for _, traced := range []bool{false, true} {
			run, err = loopBatch(in, w, 0, traced, nil)
			if err != nil {
				t.Fatal(err)
			}
			if run.failed != 1 {
				t.Errorf("%s traced=%v: %d failed, want the 1 wrong document", w.kind, traced, run.failed)
			}
		}
	}
}

// TestServeCatchesCorruptedDocuments flips one byte of every result the
// daemon serves: setup must refuse the corrupted hit document, and in the
// loop every request — hits compared directly, the others against the
// in-process exp.AnalyzeCircuit afterwards — must fail its check.
func TestServeCatchesCorruptedDocuments(t *testing.T) {
	var corrupt atomic.Bool
	corrupt.Store(true)
	cfg := config{seed: 1, workdir: t.TempDir(), wrap: corruptResults(&corrupt)}
	if d, err := setupServe(cfg); err == nil {
		d.stop()
		t.Fatal("setup accepted a corrupted hit document")
	}

	corrupt.Store(false)
	d, err := setupServe(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer d.stop()
	corrupt.Store(true)
	arrivals, err := d.loop(1, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := verify(arrivals, nil); err != nil {
		t.Fatal(err)
	}
	classes := map[string]int{}
	for _, a := range arrivals {
		if a.err != nil {
			t.Fatalf("%s request: %v", a.r.class, a.err)
		}
		if a.ok {
			t.Errorf("a corrupted %s document passed its check", a.r.class)
		}
		classes[a.r.class]++
	}
	if classes["hit"] == 0 || classes["fresh"] == 0 {
		t.Errorf("loop exercised classes %v, want hits and fresh analyses", classes)
	}
}

// corruptResults flips one byte of every successful result body while on
// is set.
func corruptResults(on *atomic.Bool) func(http.Handler) http.Handler {
	return func(next http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if !on.Load() || !strings.HasSuffix(r.URL.Path, "/result") {
				next.ServeHTTP(w, r)
				return
			}
			rec := httptest.NewRecorder()
			next.ServeHTTP(rec, r)
			body := rec.Body.Bytes()
			if rec.Code == http.StatusOK && len(body) > 0 {
				body[len(body)/2] ^= 1
			}
			for k, v := range rec.Header() {
				w.Header()[k] = v
			}
			w.WriteHeader(rec.Code)
			w.Write(body)
		})
	}
}

// TestParseHistograms reads back what obs.Exposition writes.
func TestParseHistograms(t *testing.T) {
	h := obs.NewHistogram(nil)
	vec := obs.NewHistogramVec(nil)
	for i := 1; i <= 50; i++ {
		h.Observe(float64(i) / 100)
		vec.Observe("stuck-at-tsets", float64(i)/1000)
	}
	var buf bytes.Buffer
	e := obs.NewExposition(&buf)
	e.Counter("ndetectd_jobs_submitted_total", "help", 3)
	e.Histogram("ndetectd_job_duration_seconds", "help", h.Snapshot())
	e.HistogramVec("ndetectd_stage_duration_seconds", "help", "stage", vec)
	got, err := parseHistograms(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for key, want := range map[string]obs.HistogramSnapshot{
		"ndetectd_job_duration_seconds":                  h.Snapshot(),
		"ndetectd_stage_duration_seconds|stuck-at-tsets": vec.Child("stuck-at-tsets").Snapshot(),
	} {
		s, ok := got[key]
		if !ok {
			t.Fatalf("no histogram %s in %v", key, got)
		}
		if s.Count != want.Count || math.Abs(s.Sum-want.Sum) > 1e-9 || s.Quantile(0.9) != want.Quantile(0.9) {
			t.Errorf("%s: parsed count %d sum %g p90 %g, want %d %g %g",
				key, s.Count, s.Sum, s.Quantile(0.9), want.Count, want.Sum, want.Quantile(0.9))
		}
	}
	if len(got) != 2 {
		t.Errorf("parsed %d histograms, want 2", len(got))
	}
}

package report

import (
	"encoding/json"
	"math"
	"strconv"
)

// Encode renders the document as indented JSON with a trailing newline —
// the exact bytes served, cached, and diffed. The bytes equal
// json.MarshalIndent(a, "", "  ") followed by "\n" (DESIGN.md §10); the
// encoder writes them directly into one presized buffer, because a
// worst-case document lists every untargeted fault (dvram's is 5.4 MB) and
// MarshalIndent's marshal-then-reindent passes cost more than the analysis
// that produced them. Tests keep MarshalIndent as the oracle. Encoding
// fails only on a NaN or infinite float, which no analysis produces; it
// panics then, as MarshalIndent's error would.
func (a *Analysis) Encode() []byte {
	w := writer{b: make([]byte, 0, a.sizeHint())}
	w.open('{')
	w.str("schema", a.Schema)
	w.str("kind", a.Kind)
	w.key("circuit")
	w.circuit(&a.Circuit)
	w.key("options")
	w.options(&a.Options)
	if a.WorstCase != nil {
		w.key("worst_case")
		w.worstCase(a.WorstCase)
	}
	if a.Average != nil {
		w.key("average_case")
		w.average(a.Average)
	}
	if a.Partitioned != nil {
		w.key("partitioned")
		w.partitioned(a.Partitioned)
	}
	w.close('}')
	return append(w.b, '\n')
}

// sizeHint is the encoded size of the fault lists, which dominate the
// document, plus a margin for the rest. Besides its name, a FaultNMin entry
// takes 54 bytes of layout and its digits, and a FaultP entry 51 bytes and
// a float of at most 24 characters. The hint is kept tight because cached
// results retain the buffer's capacity.
func (a *Analysis) sizeHint() int {
	n := 4096
	nmins := func(fs []FaultNMin) {
		for _, f := range fs {
			n += 54 + len(f.Name) + intLen(f.NMin)
		}
	}
	if wc := a.WorstCase; wc != nil {
		nmins(wc.NMin)
	}
	if av := a.Average; av != nil {
		for _, f := range av.P {
			n += 51 + len(f.Name) + 24
		}
	}
	if p := a.Partitioned; p != nil {
		for _, part := range p.Parts {
			n += 320 + 16*len(part.Outputs)
		}
		nmins(p.Merged)
	}
	return n
}

// intLen is the length of v in decimal.
func intLen(v int) int {
	n := 1
	if v < 0 {
		n, v = 2, -v
	}
	for ; v >= 10; v /= 10 {
		n++
	}
	return n
}

func (w *writer) circuit(c *CircuitInfo) {
	w.open('{')
	w.str("name", c.Name)
	w.str("hash", c.Hash)
	w.integer("inputs", c.Inputs)
	w.integer("outputs", c.Outputs)
	w.integer("gates", c.Gates)
	w.integer("multi_input_gates", c.MultiInputGates)
	w.integer("branches", c.Branches)
	w.integer("depth", c.Depth)
	w.integer("vector_space", c.VectorSpace)
	w.close('}')
}

// options keeps the omitempty tags: a zero option is absent.
func (w *writer) options(o *Options) {
	w.open('{')
	if o.FaultModel != "" {
		w.str("fault_model", o.FaultModel)
	}
	if o.NMax != 0 {
		w.integer("nmax", o.NMax)
	}
	if o.K != 0 {
		w.integer("k", o.K)
	}
	if o.Seed != 0 {
		w.key("seed")
		w.b = strconv.AppendInt(w.b, o.Seed, 10)
	}
	if o.Definition != 0 {
		w.integer("definition", o.Definition)
	}
	if o.Ge11Limit != 0 {
		w.integer("ge11_limit", o.Ge11Limit)
	}
	if o.MaxInputs != 0 {
		w.integer("max_inputs", o.MaxInputs)
	}
	w.close('}')
}

func (w *writer) worstCase(wc *WorstCase) {
	w.open('{')
	w.integer("targets", wc.Targets)
	w.integer("detectable_targets", wc.DetectableTargets)
	w.integer("untargeted", wc.Untargeted)
	w.coverage(wc.Coverage)
	w.tail(wc.Tail)
	w.integer("unbounded", wc.Unbounded)
	w.integer("max_finite", wc.MaxFinite)
	w.faultNMins("nmin", wc.NMin)
	w.close('}')
}

func (w *writer) average(av *Average) {
	w.open('{')
	w.integer("definition", av.Definition)
	w.integer("subset_above", av.SubsetAbove)
	w.integer("faults", av.Faults)
	w.key("thresholds")
	list(w, av.Thresholds, func(w *writer, t *ThresholdPoint) {
		w.open('{')
		w.float("p", t.P)
		w.integer("count", t.Count)
		w.close('}')
	})
	w.float("min_p", av.MinP)
	w.str("min_p_fault", av.MinPFault)
	w.float("expected_escapes", av.ExpectedEscapes)
	w.float("mean_set_size", av.MeanSetSize)
	w.key("p")
	list(w, av.P, func(w *writer, f *FaultP) {
		w.open('{')
		w.str("name", f.Name)
		w.float("p", f.P)
		w.close('}')
	})
	w.close('}')
}

func (w *writer) partitioned(p *Partitioned) {
	w.open('{')
	w.integer("max_inputs", p.MaxInputs)
	w.key("parts")
	list(w, p.Parts, func(w *writer, part *PartInfo) {
		w.open('{')
		w.key("outputs")
		list(w, part.Outputs, func(w *writer, o *int) {
			w.b = strconv.AppendInt(w.b, int64(*o), 10)
		})
		w.integer("inputs", part.Inputs)
		w.integer("vector_space", part.VectorSpace)
		w.integer("gates", part.Gates)
		w.integer("targets", part.Targets)
		w.integer("detectable_targets", part.DetectableTargets)
		w.integer("untargeted", part.Untargeted)
		w.float("coverage_at_10_pct", part.CoverageAt10Pct)
		w.close('}')
	})
	w.integer("merged_faults", p.MergedFaults)
	w.coverage(p.Coverage)
	w.tail(p.Tail)
	w.integer("unbounded", p.Unbounded)
	w.integer("max_finite", p.MaxFinite)
	w.faultNMins("merged", p.Merged)
	w.close('}')
}

func (w *writer) coverage(cs []CoveragePoint) {
	w.key("coverage")
	list(w, cs, func(w *writer, c *CoveragePoint) {
		w.open('{')
		w.integer("n", c.N)
		w.float("pct", c.Pct)
		w.close('}')
	})
}

func (w *writer) tail(ts []TailPoint) {
	w.key("tail")
	list(w, ts, func(w *writer, t *TailPoint) {
		w.open('{')
		w.integer("n", t.N)
		w.integer("count", t.Count)
		w.float("pct", t.Pct)
		w.close('}')
	})
}

func (w *writer) faultNMins(k string, fs []FaultNMin) {
	w.key(k)
	list(w, fs, func(w *writer, f *FaultNMin) {
		w.open('{')
		w.str("name", f.Name)
		w.integer("nmin", f.NMin)
		w.close('}')
	})
}

// writer appends MarshalIndent's layout: each member or element on its own
// line, indented two spaces per level, and an empty object or array
// written as {} or [].
type writer struct {
	b     []byte
	depth int
	// empty reports that the innermost open object or array has no member
	// yet. One flag suffices: while a value is open, its parent already
	// holds that value.
	empty bool
}

// indent holds enough spaces for the document's deepest level.
const indent = "                                "

func (w *writer) newline() {
	w.b = append(w.b, '\n')
	w.b = append(w.b, indent[:2*w.depth]...)
}

func (w *writer) open(c byte) {
	w.b = append(w.b, c)
	w.depth++
	w.empty = true
}

func (w *writer) close(c byte) {
	w.depth--
	if !w.empty {
		w.newline()
	}
	w.b = append(w.b, c)
	w.empty = false
}

// next starts a member or element of the innermost open value.
func (w *writer) next() {
	if !w.empty {
		w.b = append(w.b, ',')
	}
	w.empty = false
	w.newline()
}

// key starts an object member; k is a plain ASCII field name.
func (w *writer) key(k string) {
	w.next()
	w.b = append(w.b, '"')
	w.b = append(w.b, k...)
	w.b = append(w.b, `": `...)
}

func (w *writer) str(k, v string) {
	w.key(k)
	w.quote(v)
}

func (w *writer) integer(k string, v int) {
	w.key(k)
	w.b = strconv.AppendInt(w.b, int64(v), 10)
}

func (w *writer) float(k string, v float64) {
	w.key(k)
	w.b = appendFloat(w.b, v)
}

// quote copies a plain printable-ASCII string as is and hands any other to
// json.Marshal, so HTML escaping, U+2028/U+2029 and invalid UTF-8 come out
// as encoding/json writes them.
func (w *writer) quote(s string) {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c > 0x7e || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			q, _ := json.Marshal(s) // a string always marshals
			w.b = append(w.b, q...)
			return
		}
	}
	w.b = append(w.b, '"')
	w.b = append(w.b, s...)
	w.b = append(w.b, '"')
}

// list writes a JSON array, or null for a nil slice.
func list[T any](w *writer, s []T, elem func(*writer, *T)) {
	if s == nil {
		w.b = append(w.b, "null"...)
		return
	}
	w.open('[')
	for i := range s {
		w.next()
		elem(w, &s[i])
	}
	w.close(']')
}

// appendFloat follows encoding/json's float64 rule: the shortest
// representation, in 'e' form below 1e-6 and from 1e21 on, with a
// two-digit negative exponent shortened (e-07 → e-7).
func appendFloat(b []byte, f float64) []byte {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		panic("report: Analysis encoding failed: json: unsupported value: " + strconv.FormatFloat(f, 'g', -1, 64))
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if format == 'e' {
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b
}

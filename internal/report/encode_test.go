package report

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"unicode/utf8"
)

// Encode writes its bytes by hand; json.MarshalIndent is the oracle. The
// documents are generated by reflection over every exported field, so a
// field added to the document types without encoder support fails here.

// docSource draws a document's choices from a byte stream, so the seeded
// test and the fuzzer share one generator. An exhausted stream reads as
// zeros, which yields nil sections and slices.
type docSource struct {
	data []byte
	// invalid records that some generated string is not valid UTF-8:
	// encoding/json replaces such bytes, so the document cannot round-trip
	// through DecodeAnalysis unchanged.
	invalid bool
}

// edgeStrings are names the encoder must escape exactly as encoding/json:
// HTML characters, quotes and backslashes, control bytes, U+2028/U+2029,
// DEL, non-ASCII and invalid UTF-8 (a stray byte, a surrogate half).
var edgeStrings = []string{
	"", "br(a,b)", "(n12,0,n7,1)", "{g1/0,g2/1}", "g/str",
	`<>&"\`, "a<b", "x&y", `q"uote`, `back\slash`,
	"\x00\x01\x1f", "tab\tnew\nline\r", "\u2028\u2029", "del\x7f",
	"naïve/0", "出力/1", "\xff\xfe", "ok\xed\xa0\x80", "\ufffd",
}

// edgeFloats sit on encoding/json's format boundaries: the 'e' form below
// 1e-6 and from 1e21 on, negative zero, and the extremes.
var edgeFloats = []float64{
	0, math.Copysign(0, -1), 1, -1, 12.5, 100, 1.0 / 3, 0.1,
	1e-6, math.Nextafter(1e-6, 0), -1e-6, 1e-7, 1.5e-10, 5e-324,
	1e21, math.Nextafter(1e21, 0), -1e21, 1e22, 1.7976931348623157e308,
	1e20, 123456789012345680000,
}

func (s *docSource) next() byte {
	if len(s.data) == 0 {
		return 0
	}
	c := s.data[0]
	s.data = s.data[1:]
	return c
}

func (s *docSource) bits() uint64 {
	var v uint64
	for i := 0; i < 8; i++ {
		v = v<<8 | uint64(s.next())
	}
	return v
}

func (s *docSource) str() string {
	var v string
	if c := s.next(); c < 192 {
		v = edgeStrings[int(c)%len(edgeStrings)]
	} else {
		b := make([]byte, c%16)
		for i := range b {
			b[i] = s.next()
		}
		v = string(b)
	}
	s.invalid = s.invalid || !utf8.ValidString(v)
	return v
}

func (s *docSource) int() int64 {
	switch c := s.next(); c % 4 {
	case 0:
		return int64(c/4) - 1
	case 1:
		return math.MaxInt64
	case 2:
		return math.MinInt64
	}
	return int64(s.bits())
}

func (s *docSource) float() float64 {
	if c := s.next(); c < 192 {
		return edgeFloats[int(c)%len(edgeFloats)]
	}
	f := math.Float64frombits(s.bits())
	if math.IsNaN(f) || math.IsInf(f, 0) {
		return 0
	}
	return f
}

// fill sets every exported field of v from s: pointers may stay nil and
// slices nil or empty, so every section and list shape occurs.
func (s *docSource) fill(t testing.TB, v reflect.Value) {
	switch v.Kind() {
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			if v.Type().Field(i).IsExported() {
				s.fill(t, v.Field(i))
			}
		}
	case reflect.Pointer:
		if s.next()%3 == 0 {
			return
		}
		v.Set(reflect.New(v.Type().Elem()))
		s.fill(t, v.Elem())
	case reflect.Slice:
		n := int(s.next() % 6)
		if n == 0 {
			return // nil
		}
		n-- // 0 makes an empty, non-nil slice
		v.Set(reflect.MakeSlice(v.Type(), n, n))
		for i := 0; i < n; i++ {
			s.fill(t, v.Index(i))
		}
	case reflect.String:
		v.SetString(s.str())
	case reflect.Int, reflect.Int64:
		v.SetInt(s.int())
	case reflect.Float64:
		v.SetFloat(s.float())
	default:
		t.Fatalf("document field of kind %s: teach Encode and this generator about it", v.Kind())
	}
}

func randomAnalysis(t testing.TB, data []byte) (a *Analysis, validUTF8 bool) {
	s := &docSource{data: data}
	a = new(Analysis)
	s.fill(t, reflect.ValueOf(a).Elem())
	return a, !s.invalid
}

// checkEncode compares Encode with the oracle and checks the DecodeAnalysis
// round trip: exact for valid UTF-8, and stable after one pass otherwise.
func checkEncode(t *testing.T, a *Analysis, validUTF8 bool) {
	t.Helper()
	got := a.Encode()
	want, err := json.MarshalIndent(a, "", "  ")
	if err != nil {
		t.Fatalf("MarshalIndent: %v", err)
	}
	want = append(want, '\n')
	if !bytes.Equal(got, want) {
		i := 0
		for i < len(got) && i < len(want) && got[i] == want[i] {
			i++
		}
		lo := max(i-80, 0)
		t.Fatalf("Encode differs from MarshalIndent at byte %d:\ngot:  %q\nwant: %q",
			i, got[lo:min(i+40, len(got))], want[lo:min(i+40, len(want))])
	}
	back, err := DecodeAnalysis(got)
	if err != nil {
		t.Fatalf("DecodeAnalysis: %v", err)
	}
	if validUTF8 && !reflect.DeepEqual(a, back) {
		t.Fatalf("round trip changed the document:\nbefore: %+v\nafter:  %+v", a, back)
	}
	again := back.Encode()
	if validUTF8 && !bytes.Equal(again, got) {
		t.Fatal("re-encoding the decoded document changed the bytes")
	}
	if back2, err := DecodeAnalysis(again); err != nil || !bytes.Equal(back2.Encode(), again) {
		t.Fatalf("decoded document does not re-encode stably (err %v)", err)
	}
}

func TestEncodeMatchesMarshalIndent(t *testing.T) {
	fixed := []*Analysis{
		sampleAnalysis(),
		{},
		{Schema: AnalysisSchema, WorstCase: &WorstCase{}, Average: &Average{}, Partitioned: &Partitioned{}},
		{WorstCase: &WorstCase{Coverage: []CoveragePoint{}, Tail: []TailPoint{}, NMin: []FaultNMin{}},
			Average:     &Average{Thresholds: []ThresholdPoint{}, P: []FaultP{}},
			Partitioned: &Partitioned{Parts: []PartInfo{{Outputs: []int{}}, {}}, Merged: []FaultNMin{}}},
	}
	for _, a := range fixed {
		checkEncode(t, a, true)
	}
	for _, f := range edgeFloats {
		checkEncode(t, &Analysis{Average: &Average{MinP: f, P: []FaultP{{P: -f}}}}, true)
	}
	for _, name := range edgeStrings {
		checkEncode(t, &Analysis{Circuit: CircuitInfo{Name: name},
			WorstCase: &WorstCase{NMin: []FaultNMin{{Name: name, NMin: UnboundedJSON}}}}, utf8.ValidString(name))
	}

	sections := [3]bool{}
	for seed := int64(0); seed < 3000; seed++ {
		data := make([]byte, 64+seed%512)
		rand.New(rand.NewSource(seed)).Read(data)
		a, valid := randomAnalysis(t, data)
		checkEncode(t, a, valid)
		sections[0] = sections[0] || a.WorstCase != nil
		sections[1] = sections[1] || a.Average != nil
		sections[2] = sections[2] || a.Partitioned != nil
	}
	if sections != [3]bool{true, true, true} {
		t.Fatalf("random documents never filled some section: %v", sections)
	}
}

func TestEncodePanicsOnNonFinite(t *testing.T) {
	for _, f := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		func() {
			defer func() {
				r, _ := recover().(string)
				if !strings.Contains(r, "json: unsupported value") {
					t.Errorf("Encode with %v: recovered %q, want the unsupported-value panic", f, r)
				}
			}()
			(&Analysis{Average: &Average{MinP: f}}).Encode()
		}()
	}
}

// FuzzAnalysisEncode runs the oracle comparison on documents generated
// from fuzzed bytes:
//
//	go test -run '^$' -fuzz FuzzAnalysisEncode -fuzztime 10s ./internal/report/
func FuzzAnalysisEncode(f *testing.F) {
	f.Add([]byte{})
	for seed := int64(0); seed < 8; seed++ {
		data := make([]byte, 256)
		rand.New(rand.NewSource(seed)).Read(data)
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		a, valid := randomAnalysis(t, data)
		checkEncode(t, a, valid)
	})
}

// TestEncodeSizeHint pins the presized buffer: the encoder never regrows
// it, and its slack stays small, since cached results keep the capacity.
func TestEncodeSizeHint(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	a := sampleAnalysis()
	a.WorstCase.NMin, a.Average.P = nil, nil
	for i := 0; i < 20000; i++ {
		name := fmt.Sprintf("(n%d,0,g_%d,1)", rng.Intn(5000), rng.Intn(500))
		a.WorstCase.NMin = append(a.WorstCase.NMin, FaultNMin{Name: name, NMin: rng.Intn(300) - 1})
		if i%10 == 0 {
			a.Average.P = append(a.Average.P, FaultP{Name: name, P: float64(rng.Intn(1001)) / 1000})
		}
	}
	a.Partitioned = &Partitioned{Merged: a.WorstCase.NMin[:5000]}
	for i := 0; i < 40; i++ {
		a.Partitioned.Parts = append(a.Partitioned.Parts, PartInfo{
			Outputs: []int{i, i + 100, i + 1000}, Inputs: 16, VectorSpace: 65536, Gates: 300,
			Targets: 900, DetectableTargets: 880, Untargeted: 5000, CoverageAt10Pct: 99.5,
		})
	}
	got := a.Encode()
	if hint := a.sizeHint(); cap(got) != hint {
		t.Fatalf("Encode regrew its buffer: cap %d, hint %d, len %d", cap(got), hint, len(got))
	}
	if slack, limit := cap(got)-len(got), 4096+24*len(a.Average.P); slack > limit {
		t.Fatalf("buffer slack %d bytes exceeds %d (len %d)", slack, limit, len(got))
	}
}

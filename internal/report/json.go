package report

import "encoding/json"

// Machine-readable analysis results.
//
// Analysis is the JSON document both `cmd/ndetect -json` and the ndetectd
// serving layer emit — one encoder, so CLI and daemon outputs are diffable
// byte for byte. Encoding is deterministic: field order is struct order,
// slices carry explicit ordering, and there are no maps or timestamps. The
// serving layer relies on that determinism for its golden-stability
// guarantee (a cache hit is byte-identical to a cold run, DESIGN.md §10).
//
// nmin values use -1 for "unbounded" (no n-detection test set is ever
// guaranteed to detect the fault) — math.MaxInt would survive a JSON round
// trip but reads as noise.

// AnalysisSchema identifies the document layout; bump on incompatible
// change.
const AnalysisSchema = "ndetect.analysis/v1"

// UnboundedJSON is the JSON encoding of an unbounded nmin.
const UnboundedJSON = -1

// Analysis is one circuit's complete analysis result.
type Analysis struct {
	Schema  string      `json:"schema"`
	Kind    string      `json:"kind"` // "worstcase", "average" or "partitioned"
	Circuit CircuitInfo `json:"circuit"`
	Options Options     `json:"options"`

	// Exactly the sections the kind implies: worstcase fills WorstCase,
	// average fills WorstCase and Average, partitioned fills Partitioned.
	WorstCase   *WorstCase   `json:"worst_case,omitempty"`
	Average     *Average     `json:"average_case,omitempty"`
	Partitioned *Partitioned `json:"partitioned,omitempty"`
}

// CircuitInfo identifies and summarizes the analysed circuit. Hash is the
// canonical content hash (circuit.Hash) — the cache identity; Name is
// presentation only.
type CircuitInfo struct {
	Name            string `json:"name"`
	Hash            string `json:"hash"`
	Inputs          int    `json:"inputs"`
	Outputs         int    `json:"outputs"`
	Gates           int    `json:"gates"`
	MultiInputGates int    `json:"multi_input_gates"`
	Branches        int    `json:"branches"`
	Depth           int    `json:"depth"`
	VectorSpace     int    `json:"vector_space"` // |U| = 2^inputs; 0 when it overflows int
}

// Options records the result-identity options of the run (DESIGN.md §7):
// every field here changes results, which is why the serving layer keys its
// cache on (circuit hash, kind, these options) — and why Workers, which
// only changes wall-clock time, is absent.
type Options struct {
	// FaultModel is the registered fault model the universe was built
	// under; empty means the default model (fault.DefaultModelID), so
	// default-model documents are byte-identical to pre-registry ones.
	FaultModel string `json:"fault_model,omitempty"`

	NMax       int   `json:"nmax,omitempty"`       // average
	K          int   `json:"k,omitempty"`          // average
	Seed       int64 `json:"seed,omitempty"`       // average
	Definition int   `json:"definition,omitempty"` // average: 1 or 2
	Ge11Limit  int   `json:"ge11_limit,omitempty"` // average: cap on the analysed subset (0 = none)
	MaxInputs  int   `json:"max_inputs,omitempty"` // partitioned: per-part input limit
}

// CoveragePoint is one "nmin(g) ≤ n" column: the fraction of untargeted
// faults guaranteed by any n-detection test set.
type CoveragePoint struct {
	N   int     `json:"n"`
	Pct float64 `json:"pct"`
}

// TailPoint is one "nmin(g) ≥ n" column.
type TailPoint struct {
	N     int     `json:"n"`
	Count int     `json:"count"`
	Pct   float64 `json:"pct"`
}

// FaultNMin is one untargeted fault's worst-case verdict.
type FaultNMin struct {
	Name string `json:"name"`
	NMin int    `json:"nmin"` // -1 = unbounded
}

// WorstCase is the Section 2 analysis of one circuit: the machine-readable
// form of the Table 2 and Table 3 rows plus the full per-fault verdict.
type WorstCase struct {
	Targets           int `json:"targets"`
	DetectableTargets int `json:"detectable_targets"`
	Untargeted        int `json:"untargeted"`

	Coverage  []CoveragePoint `json:"coverage"` // at NMinColumns
	Tail      []TailPoint     `json:"tail"`     // at Table3Columns
	Unbounded int             `json:"unbounded"`
	MaxFinite int             `json:"max_finite"`

	// NMin lists every untargeted fault in universe index order.
	NMin []FaultNMin `json:"nmin"`
}

// ThresholdPoint is one probability-ladder column of Tables 5/6: the number
// of analysed faults with p(nmax, g) ≥ P.
type ThresholdPoint struct {
	P     float64 `json:"p"`
	Count int     `json:"count"`
}

// FaultP is one fault's estimated detection probability at n = nmax.
type FaultP struct {
	Name string  `json:"name"`
	P    float64 `json:"p"`
}

// Average is the Section 3 analysis: Procedure 1 statistics over the
// faults the worst case does not settle (nmin > nmax), optionally capped
// by Ge11Limit with even sampling across the nmin-sorted list.
type Average struct {
	Definition int `json:"definition"` // 1 or 2
	// SubsetAbove is the nmin threshold defining the analysed subset
	// (faults with nmin > nmax, i.e. ≥ SubsetAbove).
	SubsetAbove int `json:"subset_above"`
	Faults      int `json:"faults"` // subset size after the cap

	Thresholds      []ThresholdPoint `json:"thresholds"` // at report.Thresholds
	MinP            float64          `json:"min_p"`
	MinPFault       string           `json:"min_p_fault"`
	ExpectedEscapes float64          `json:"expected_escapes"`
	MeanSetSize     float64          `json:"mean_set_size"`

	// P lists p(nmax, g) for every analysed fault in subset order.
	P []FaultP `json:"p"`
}

// PartInfo is one part of the partitioned pipeline, in Split order.
type PartInfo struct {
	// Outputs are the original primary-output positions the part covers.
	Outputs           []int   `json:"outputs"`
	Inputs            int     `json:"inputs"`
	VectorSpace       int     `json:"vector_space"`
	Gates             int     `json:"gates"`
	Targets           int     `json:"targets"`
	DetectableTargets int     `json:"detectable_targets"`
	Untargeted        int     `json:"untargeted"`
	CoverageAt10Pct   float64 `json:"coverage_at_10_pct"`
}

// Partitioned is the Section 4 pipeline result: per-part summaries plus
// the merged worst-case table (per-part bounds; see DESIGN.md §8 for what
// the merged numbers mean).
type Partitioned struct {
	MaxInputs int        `json:"max_inputs"`
	Parts     []PartInfo `json:"parts"`

	MergedFaults int             `json:"merged_faults"`
	Coverage     []CoveragePoint `json:"coverage"`
	Tail         []TailPoint     `json:"tail"`
	Unbounded    int             `json:"unbounded"`
	MaxFinite    int             `json:"max_finite"`

	// Merged lists every merged bridging fault in sorted name order.
	Merged []FaultNMin `json:"merged"`
}

// DecodeAnalysis parses an encoded Analysis document.
func DecodeAnalysis(data []byte) (*Analysis, error) {
	var a Analysis
	if err := json.Unmarshal(data, &a); err != nil {
		return nil, err
	}
	return &a, nil
}

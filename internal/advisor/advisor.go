// Package advisor implements the CM Advisor (Section 6): soft-FD
// discovery, bucketing enumeration, composite-design search and CM
// recommendation under a user performance target.
//
// The advisor works from one table scan that feeds per-column Distinct
// Samplers (exact-ish single-attribute cardinalities) and a reservoir row
// sample. Composite cardinalities — needed for every candidate design's
// c_per_u — come from the Adaptive Estimator over the sample, so costing
// a candidate takes microseconds and the design space of Section 6.1.3
// (hundreds of combinations per query) stays cheap to search.
package advisor

import (
	"fmt"
	"math"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/costmodel"
	"repro/internal/exec"
	"repro/internal/heap"
	"repro/internal/keyenc"
	"repro/internal/stats"
	"repro/internal/table"
	"repro/internal/value"
)

// Config tunes the advisor.
type Config struct {
	SampleSize    int   // reservoir size; default 30000 as in the paper
	Seed          int64 // sampling determinism
	MinBucketsLog int   // smallest bucket count considered, log2; default 2
	MaxBucketsLog int   // largest bucket count considered, log2; default 16
}

func (c *Config) defaults() {
	if c.SampleSize <= 0 {
		c.SampleSize = 30000
	}
	if c.MinBucketsLog <= 0 {
		c.MinBucketsLog = 2
	}
	if c.MaxBucketsLog <= 0 {
		c.MaxBucketsLog = 16
	}
}

// Advisor holds the statistics gathered by the preparation scan.
type Advisor struct {
	cfg   Config
	tbl   *table.Table
	rows  []value.Row // reservoir sample
	total int64

	du     map[int]float64 // per-column distinct estimates (Distinct Sampling)
	colMin map[int]float64 // numeric column minima
	colMax map[int]float64 // numeric column maxima
	hw     costmodel.Hardware
	tstats costmodel.TableStats
}

// New scans the table once, building the distinct samplers and the
// reservoir sample (Section 4.2: the sample is collected during the DS
// scan).
func New(tbl *table.Table, cfg Config) (*Advisor, error) {
	cfg.defaults()
	sch := tbl.Schema()
	ncols := len(sch.Cols)
	samplers := make([]*stats.DistinctSampler, ncols)
	for i := range samplers {
		samplers[i] = stats.NewDistinctSampler(4096)
	}
	res := stats.NewReservoir(cfg.SampleSize, cfg.Seed)
	colMin := make(map[int]float64, ncols)
	colMax := make(map[int]float64, ncols)
	var rows []value.Row
	// Every column is sampled; the scratch row is read within the call
	// (the reservoir keeps an encoded copy).
	err := tbl.Scan(nil, func(_ heap.RID, row value.Row) bool {
		for i := range row {
			samplers[i].Add(keyenc.EncodeValue(row[i]))
			if row[i].K != value.String {
				f := row[i].F
				if row[i].K == value.Int {
					f = float64(row[i].I)
				}
				if cur, ok := colMin[i]; !ok || f < cur {
					colMin[i] = f
				}
				if cur, ok := colMax[i]; !ok || f > cur {
					colMax[i] = f
				}
			}
		}
		res.Add(encodeSampleRow(row))
		return true
	})
	if err != nil {
		return nil, err
	}
	for _, item := range res.Items() {
		row, err := decodeSampleRow(sch, item)
		if err != nil {
			return nil, err
		}
		rows = append(rows, row)
	}
	st := tbl.Stats()
	a := &Advisor{
		cfg:    cfg,
		tbl:    tbl,
		rows:   rows,
		total:  st.TotalTups,
		du:     make(map[int]float64, ncols),
		colMin: colMin,
		colMax: colMax,
		hw:     costmodel.DefaultHardware(),
		tstats: costmodel.TableStats{
			TupsPerPage: st.TupsPerPage,
			TotalTups:   float64(st.TotalTups),
			BTreeHeight: float64(st.BTreeHeight),
		},
	}
	for i, s := range samplers {
		a.du[i] = s.Estimate()
	}
	return a, nil
}

func encodeSampleRow(row value.Row) []byte {
	var out []byte
	for _, v := range row {
		out = keyenc.AppendValue(out, v)
	}
	return out
}

func decodeSampleRow(sch table.Schema, b []byte) (value.Row, error) {
	vals, err := keyenc.DecodeAll(b)
	if err != nil {
		return nil, err
	}
	if len(vals) != len(sch.Cols) {
		return nil, fmt.Errorf("advisor: sample row has %d values, want %d", len(vals), len(sch.Cols))
	}
	return vals, nil
}

// DistinctEstimate returns the Distinct Sampling estimate for a column.
func (a *Advisor) DistinctEstimate(col int) float64 { return a.du[col] }

// BucketingOption is one bucketing the advisor considers for a column
// (Table 4 of the paper).
type BucketingOption struct {
	// Level is the paper's bucket-size exponent: each bucket holds
	// about 2^Level distinct values (0 = no bucketing).
	Level      int
	Bucketer   core.Bucketer
	EstBuckets float64
}

// BucketingsFor enumerates the bucketings for a column per Section 6.1.2:
// the identity bucketing when the domain is small enough, then bucket
// sizes of 2^level values per bucket for every level whose bucket count
// stays within [2^MinBucketsLog, 2^MaxBucketsLog] — exactly the scheme
// behind the paper's Table 4 ("psfMag_g: 2^2 ~ 2^16").
func (a *Advisor) BucketingsFor(col int) []BucketingOption {
	kind := a.tbl.Schema().Cols[col].Kind
	d := a.du[col]
	var out []BucketingOption
	maxBuckets := math.Pow(2, float64(a.cfg.MaxBucketsLog))
	minBuckets := math.Pow(2, float64(a.cfg.MinBucketsLog))
	if d <= maxBuckets {
		out = append(out, BucketingOption{Level: 0, Bucketer: core.Identity{}, EstBuckets: d})
	}
	if kind == value.String {
		// Categorical domains only bucket by prefix; enumerate a few
		// prefix lengths that plausibly reduce cardinality.
		for _, l := range []int{8, 4, 2, 1} {
			out = append(out, BucketingOption{
				Level:      l,
				Bucketer:   core.StringPrefix{Len: l},
				EstBuckets: math.Min(d, math.Pow(2, float64(4*l))),
			})
		}
		return out
	}
	span := a.colMax[col] - a.colMin[col]
	if span <= 0 || d <= 0 {
		return out
	}
	for level := 1; level <= 62; level++ {
		perBucket := math.Pow(2, float64(level))
		buckets := d / perBucket
		if buckets > maxBuckets {
			continue
		}
		if buckets < minBuckets {
			break
		}
		// 2^level values per bucket over a roughly uniform domain is a
		// truncation width of span * 2^level / D.
		width := span * perBucket / d
		var b core.Bucketer
		if kind == value.Int {
			w := int64(width)
			if w < 1 {
				w = 1
			}
			b = core.IntWidth{Width: w}
		} else {
			b = core.FloatWidth{Width: width}
		}
		out = append(out, BucketingOption{Level: level, Bucketer: b, EstBuckets: buckets})
	}
	return out
}

// Candidate is one CM design with its estimates.
type Candidate struct {
	Cols      []int
	Bucketers []core.Bucketer
	Levels    []int

	EstKeys     float64 // distinct bucketed CM keys
	EstCPerU    float64 // clustered buckets per key
	EstSize     int64   // CM bytes
	EstRuntime  time.Duration
	EstBTree    time.Duration // sorted B+Tree scan baseline for the query
	EstBTreeSz  int64
	SlowdownPct float64 // (EstRuntime - EstBTree) / EstBTree * 100
}

// Describe renders the design like the paper's Table 5 rows.
func (c Candidate) Describe(sch table.Schema) string {
	s := ""
	for i, col := range c.Cols {
		if i > 0 {
			s += ", "
		}
		s += sch.Cols[col].Name
		if c.Levels[i] > 0 {
			s += fmt.Sprintf("(2^%d)", c.Levels[i])
		}
	}
	return s
}

// estimateDesign computes the candidate's statistics from the sample.
func (a *Advisor) estimateDesign(cols []int, bucketers []core.Bucketer, nLookups int) Candidate {
	// Build bucketed keys over the sample, paired with clustered buckets.
	uKeys := make([][]byte, 0, len(a.rows))
	ucKeys := make([][]byte, 0, len(a.rows))
	var keyBytes int64
	for _, row := range a.rows {
		var uk []byte
		for i, col := range cols {
			uk = keyenc.AppendValue(uk, bucketers[i].Bucket(row[col]))
		}
		cb := a.tbl.ClusterBucketFor(row)
		uc := make([]byte, len(uk), len(uk)+5)
		copy(uc, uk)
		uc = append(uc, byte(cb), byte(cb>>8), byte(cb>>16), byte(cb>>24))
		uKeys = append(uKeys, uk)
		ucKeys = append(ucKeys, uc)
		keyBytes += int64(len(uk))
	}
	fcU := stats.CountFrequencies(uKeys)
	fcUC := stats.CountFrequencies(ucKeys)
	dU := stats.AdaptiveEstimate(a.total, fcU)
	dUC := stats.AdaptiveEstimate(a.total, fcUC)
	cPerU := stats.CPerUExact(dU, dUC)

	avgKeyLen := float64(12)
	if len(uKeys) > 0 {
		avgKeyLen = float64(keyBytes) / float64(len(uKeys))
	}
	estSize := int64(dU*(avgKeyLen+6) + dUC*8)

	nb := a.tbl.Buckets().NumBuckets()
	ppb := 1.0
	if nb > 0 {
		ppb = a.tstats.Pages() / float64(nb)
	}
	runtime := costmodel.CMLookup(a.hw, a.tstats, costmodel.CMStats{
		CPerU:           cPerU,
		PagesPerCBucket: ppb,
	}, nLookups)
	return Candidate{
		Cols:       cols,
		Bucketers:  bucketers,
		EstKeys:    dU,
		EstCPerU:   cPerU,
		EstSize:    estSize,
		EstRuntime: runtime,
	}
}

// btreeBaseline estimates the sorted secondary B+Tree scan the CM would
// replace, including its size (entry = key + RID at ~2/3 fill).
func (a *Advisor) btreeBaseline(cols []int, nLookups int) (time.Duration, int64) {
	uKeys := make([][]byte, 0, len(a.rows))
	ucKeys := make([][]byte, 0, len(a.rows))
	var keyBytes int64
	for _, row := range a.rows {
		var uk []byte
		for _, col := range cols {
			uk = keyenc.AppendValue(uk, row[col])
		}
		ck := keyenc.EncodeRowPrefix(row, a.tbl.ClusteredCols())
		uKeys = append(uKeys, uk)
		ucKeys = append(ucKeys, append(append([]byte{}, uk...), ck...))
		keyBytes += int64(len(uk))
	}
	fcU := stats.CountFrequencies(uKeys)
	fcUC := stats.CountFrequencies(ucKeys)
	dU := stats.AdaptiveEstimate(a.total, fcU)
	dUC := stats.AdaptiveEstimate(a.total, fcUC)
	var uTups float64
	if dU > 0 {
		uTups = float64(a.total) / dU
	}
	// c_tups: tuples per clustered value.
	dc := a.du[a.tbl.ClusteredCols()[0]]
	var cTups float64
	if dc > 0 {
		cTups = float64(a.total) / dc
	}
	ps := costmodel.PairStats{
		UTups: uTups,
		CTups: cTups,
		CPerU: stats.CPerUExact(dU, dUC),
	}
	cost := costmodel.SortedIndex(a.hw, a.tstats, ps, nLookups)
	avgKeyLen := float64(12)
	if len(uKeys) > 0 {
		avgKeyLen = float64(keyBytes) / float64(len(uKeys))
	}
	size := int64(float64(a.total) * (avgKeyLen + 10) * 1.5)
	return cost, size
}

// Recommend enumerates composite CM designs for a training query
// (Section 6.2.2): every non-empty subset of the predicated columns,
// crossed with every bucketing option per column, estimated via AE, then
// filtered to the user's performance target (max slowdown vs the B+Tree
// baseline, in percent) and sorted by size. The first element is the
// recommendation; the full list reproduces Table 5.
func (a *Advisor) Recommend(q exec.Query, maxSlowdownPct float64) ([]Candidate, error) {
	cols := q.Cols()
	if len(cols) == 0 {
		return nil, fmt.Errorf("advisor: query has no predicates")
	}
	nLookups := 1
	for _, p := range q.Preds {
		nLookups *= p.NLookups()
	}

	var all []Candidate
	// Enumerate non-empty subsets of predicated columns.
	for mask := 1; mask < 1<<len(cols); mask++ {
		var subset []int
		for i := range cols {
			if mask&(1<<i) != 0 {
				subset = append(subset, cols[i])
			}
		}
		options := make([][]BucketingOption, len(subset))
		feasible := true
		for i, col := range subset {
			options[i] = a.BucketingsFor(col)
			if len(options[i]) == 0 {
				feasible = false
				break
			}
		}
		if !feasible {
			continue
		}
		// Cross product of bucketing options.
		idx := make([]int, len(subset))
		for {
			bucketers := make([]core.Bucketer, len(subset))
			levels := make([]int, len(subset))
			for i := range subset {
				bucketers[i] = options[i][idx[i]].Bucketer
				levels[i] = options[i][idx[i]].Level
			}
			cand := a.estimateDesign(subset, bucketers, nLookups)
			cand.Levels = levels
			all = append(all, cand)

			// Advance the mixed-radix counter.
			j := 0
			for ; j < len(idx); j++ {
				idx[j]++
				if idx[j] < len(options[j]) {
					break
				}
				idx[j] = 0
			}
			if j == len(idx) {
				break
			}
		}
	}

	// Baseline: a composite secondary B+Tree over all predicated columns.
	btCost, btSize := a.btreeBaseline(cols, nLookups)
	for i := range all {
		all[i].EstBTree = btCost
		all[i].EstBTreeSz = btSize
		if btCost > 0 {
			all[i].SlowdownPct = 100 * (float64(all[i].EstRuntime) - float64(btCost)) / float64(btCost)
		}
	}

	// Keep candidates within the performance target; sort by size.
	var kept []Candidate
	for _, c := range all {
		if c.SlowdownPct <= maxSlowdownPct {
			kept = append(kept, c)
		}
	}
	sort.Slice(kept, func(i, j int) bool {
		if kept[i].EstSize != kept[j].EstSize {
			return kept[i].EstSize < kept[j].EstSize
		}
		return kept[i].EstRuntime < kept[j].EstRuntime
	})
	return kept, nil
}

// AllCandidates is Recommend without the performance filter, sorted by
// estimated runtime then size — the full Table 5 view.
func (a *Advisor) AllCandidates(q exec.Query) ([]Candidate, error) {
	kept, err := a.Recommend(q, math.Inf(1))
	if err != nil {
		return nil, err
	}
	sort.Slice(kept, func(i, j int) bool {
		if kept[i].EstRuntime != kept[j].EstRuntime {
			return kept[i].EstRuntime < kept[j].EstRuntime
		}
		return kept[i].EstSize < kept[j].EstSize
	})
	return kept, nil
}

// ParetoFront drops dominated candidates: designs that are no faster and
// no smaller than some other design. The survivors, sorted by runtime,
// trace the runtime-vs-size tradeoff curve of the paper's Table 5. The
// input must be sorted by runtime ascending (AllCandidates' order).
func ParetoFront(cands []Candidate) []Candidate {
	var out []Candidate
	bestSize := int64(math.MaxInt64)
	for _, c := range cands {
		if c.EstSize < bestSize {
			out = append(out, c)
			bestSize = c.EstSize
		}
	}
	return out
}

// SoftFD is a discovered approximate functional dependency.
type SoftFD struct {
	Determinant []int
	Dependent   int
	Strength    float64 // D(det) / D(det ∪ dep); 1 = hard FD
}

// DiscoverFDs searches single- and two-attribute determinants for soft
// FDs onto each other column, using AE estimates over the sample. Only
// FDs at least minStrength strong are returned, strongest first. This is
// the generalization of BHUNT/CORDS discovery described in Section 1:
// it handles categorical domains and multi-attribute determinants.
func (a *Advisor) DiscoverFDs(candidateCols []int, minStrength float64, includePairs bool) []SoftFD {
	var out []SoftFD
	singles := make(map[int]float64, len(candidateCols))
	keyFor := func(row value.Row, cols []int) []byte {
		var k []byte
		for _, c := range cols {
			k = keyenc.AppendValue(k, row[c])
		}
		return k
	}
	estimate := func(cols []int) float64 {
		keys := make([][]byte, 0, len(a.rows))
		for _, row := range a.rows {
			keys = append(keys, keyFor(row, cols))
		}
		return stats.AdaptiveEstimate(a.total, stats.CountFrequencies(keys))
	}
	for _, c := range candidateCols {
		singles[c] = estimate([]int{c})
	}
	consider := func(det []int, dep int) {
		dDet := estimate(det)
		// Prune near-unique determinants (CORDS' soft-key rule): a key
		// trivially determines everything.
		if dDet > 0.8*float64(a.total) {
			return
		}
		dBoth := estimate(append(append([]int{}, det...), dep))
		if dBoth <= 0 {
			return
		}
		s := dDet / dBoth
		if s >= minStrength {
			out = append(out, SoftFD{Determinant: det, Dependent: dep, Strength: s})
		}
	}
	for _, det := range candidateCols {
		for _, dep := range candidateCols {
			if det == dep {
				continue
			}
			// Prune trivial FDs: near-unique determinants determine
			// everything (CORDS' soft-key pruning rule).
			if singles[det] > 0.8*float64(a.total) {
				continue
			}
			consider([]int{det}, dep)
		}
	}
	if includePairs {
		for i := 0; i < len(candidateCols); i++ {
			for j := i + 1; j < len(candidateCols); j++ {
				d1, d2 := candidateCols[i], candidateCols[j]
				for _, dep := range candidateCols {
					if dep == d1 || dep == d2 {
						continue
					}
					consider([]int{d1, d2}, dep)
				}
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Strength > out[j].Strength })
	return out
}

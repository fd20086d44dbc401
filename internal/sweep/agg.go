package sweep

import (
	"fmt"

	"repro/internal/adversary"
	"repro/internal/sim"
)

// Meta identifies the sweep an aggregation describes — the Report
// header fields that do not depend on any case. A distributed
// coordinator builds it from the full Spec even though each worker only
// ever sees a shard, so the merged Report is indistinguishable from a
// single-process run's.
type Meta struct {
	Algorithm string
	Scheduler string
	Robots    int
	Source    string
	Patterns  int
	Schedules int
}

// Aggregator folds CaseResults into a Report with exactly the
// arithmetic of the in-process engine — Stream runs on it, and the
// distributed coordinator (internal/dist) feeds it the merged worker
// streams, which is what makes a sharded report bit-identical to a
// single-process one by construction rather than by parallel
// bookkeeping. Adversary cases (those carrying a Verdict) also fill the
// verdict partition, ByMethod and the witness-depth maximum, and their
// rounds/moves aggregates describe the witness replays of defeats.
//
// Absorption is commutative at pattern granularity: every aggregate is
// either a commutative fold over runs (status counts, sums, maxima) or
// a per-pattern fact (the robustness bucket), so absorbing whole
// patterns in any order yields the same Report. The only ordering
// contract is that the Schedules runs of one pattern arrive
// consecutively in seed order — which holds for the in-order Stream
// loop and for any shard partition that splits on pattern boundaries
// (Partition only produces those).
type Aggregator struct {
	report            *Report
	m                 int
	keep              bool
	inPattern         int // runs absorbed of the currently open pattern group
	gatheredOfPattern int
	measured          int // runs the rounds/moves aggregates describe
	sumRounds         int
	sumMoves          int
	absorbed          int
}

// NewAggregator starts an empty aggregation for the described sweep.
// keepCases retains every absorbed case in Report.Cases (the Stream
// KeepCases contract); distributed merges leave it off.
func NewAggregator(meta Meta, keepCases bool) *Aggregator {
	m := meta.Schedules
	if m < 1 {
		m = 1
	}
	return &Aggregator{
		report: &Report{
			Algorithm: meta.Algorithm,
			Scheduler: meta.Scheduler,
			Robots:    meta.Robots,
			Source:    meta.Source,
			Patterns:  meta.Patterns,
			Schedules: m,
			Total:     meta.Patterns * m,
			ByStatus:  map[sim.Status]int{},
			ByClass:   map[Class]int{},
			Robust:    make([]int, m+1),
		},
		m:    m,
		keep: keepCases,
	}
}

// Absorb folds one run into the aggregation.
func (a *Aggregator) Absorb(cr CaseResult) {
	r := a.report
	r.ByStatus[cr.Status]++
	if cr.Status == sim.Gathered {
		a.gatheredOfPattern++
	} else {
		r.ByClass[cr.Class]++
	}
	// Rounds and moves describe gathered runs, except in adversary mode,
	// where safe verdicts involve no run and defeats have a replay.
	measured := cr.Status == sim.Gathered
	if v := cr.Verdict; v != nil {
		if r.ByMethod == nil {
			r.ByMethod = map[string]int{}
		}
		r.ByMethod[v.Method]++
		switch v.Kind {
		case adversary.Safe:
			r.SafePatterns++
		case adversary.Defeatable:
			r.Defeatable++
			r.MaxWitnessDepth = max(r.MaxWitnessDepth, v.Depth)
		}
		measured = v.Kind == adversary.Defeatable
	}
	if measured {
		a.measured++
		a.sumRounds += cr.Rounds
		a.sumMoves += cr.Moves
		r.MaxRounds = max(r.MaxRounds, cr.Rounds)
		r.MaxMoves = max(r.MaxMoves, cr.Moves)
	}
	a.absorbed++
	a.inPattern++
	if a.inPattern == a.m { // pattern complete: all its schedules absorbed
		r.Robust[a.gatheredOfPattern]++
		a.gatheredOfPattern = 0
		a.inPattern = 0
	}
	if a.keep {
		r.Cases = append(r.Cases, cr)
	}
}

// Absorbed returns the number of runs absorbed so far.
func (a *Aggregator) Absorbed() int { return a.absorbed }

// Finish computes the derived aggregates and returns the Report. The
// aggregator may keep absorbing afterwards (Finish is recomputed), but
// callers normally finish exactly once, after the last case.
func (a *Aggregator) Finish() *Report {
	r := a.report
	if a.measured > 0 {
		r.MeanRounds = float64(a.sumRounds) / float64(a.measured)
		r.MeanMoves = float64(a.sumMoves) / float64(a.measured)
	}
	return r
}

// AggState is the serializable snapshot of an Aggregator — the
// "partial report" half of a distributed sweep's checkpoint. Every
// field is an exact integer (means are derived at Finish from the
// sums), so a restored aggregation continues bit-identically.
type AggState struct {
	Algorithm string             `json:"algorithm"`
	Scheduler string             `json:"scheduler"`
	Robots    int                `json:"robots"`
	Source    string             `json:"source"`
	Patterns  int                `json:"patterns"`
	Schedules int                `json:"schedules"`
	ByStatus  map[sim.Status]int `json:"by_status"`
	ByClass   map[Class]int      `json:"by_class"`
	Robust    []int              `json:"robust"`
	MaxRounds int                `json:"max_rounds"`
	MaxMoves  int                `json:"max_moves"`
	SumRounds int                `json:"sum_rounds"`
	SumMoves  int                `json:"sum_moves"`
	Gathered  int                `json:"gathered"`
	Absorbed  int                `json:"absorbed"`
}

// Snapshot captures the aggregation state. It refuses to snapshot in
// the middle of a pattern group: a checkpoint between two schedules of
// one pattern could not be resumed without re-splitting the pattern,
// and no shard partition produces that situation.
func (a *Aggregator) Snapshot() (*AggState, error) {
	if a.inPattern != 0 {
		return nil, fmt.Errorf("sweep: snapshot mid-pattern (%d of %d schedules absorbed)", a.inPattern, a.m)
	}
	r := a.report
	if r.ByMethod != nil {
		return nil, fmt.Errorf("sweep: snapshot of an adversary aggregation (its verdict partition is not part of AggState)")
	}
	s := &AggState{
		Algorithm: r.Algorithm,
		Scheduler: r.Scheduler,
		Robots:    r.Robots,
		Source:    r.Source,
		Patterns:  r.Patterns,
		Schedules: r.Schedules,
		ByStatus:  make(map[sim.Status]int, len(r.ByStatus)),
		ByClass:   make(map[Class]int, len(r.ByClass)),
		Robust:    append([]int(nil), r.Robust...),
		MaxRounds: r.MaxRounds,
		MaxMoves:  r.MaxMoves,
		SumRounds: a.sumRounds,
		SumMoves:  a.sumMoves,
		Gathered:  a.measured,
		Absorbed:  a.absorbed,
	}
	for k, v := range r.ByStatus {
		s.ByStatus[k] = v
	}
	for k, v := range r.ByClass {
		s.ByClass[k] = v
	}
	return s, nil
}

// RestoreAggregator rebuilds an Aggregator from a snapshot, ready to
// absorb the remaining patterns.
func RestoreAggregator(s *AggState) (*Aggregator, error) {
	if s == nil {
		return nil, fmt.Errorf("sweep: nil aggregator snapshot")
	}
	if s.Schedules < 1 || len(s.Robust) != s.Schedules+1 {
		return nil, fmt.Errorf("sweep: corrupt aggregator snapshot: %d schedules, %d robustness buckets",
			s.Schedules, len(s.Robust))
	}
	if s.Absorbed < 0 || s.Absorbed%s.Schedules != 0 {
		return nil, fmt.Errorf("sweep: corrupt aggregator snapshot: %d runs absorbed is not a multiple of %d schedules",
			s.Absorbed, s.Schedules)
	}
	a := NewAggregator(Meta{
		Algorithm: s.Algorithm,
		Scheduler: s.Scheduler,
		Robots:    s.Robots,
		Source:    s.Source,
		Patterns:  s.Patterns,
		Schedules: s.Schedules,
	}, false)
	for k, v := range s.ByStatus {
		a.report.ByStatus[k] = v
	}
	for k, v := range s.ByClass {
		a.report.ByClass[k] = v
	}
	copy(a.report.Robust, s.Robust)
	a.report.MaxRounds = s.MaxRounds
	a.report.MaxMoves = s.MaxMoves
	a.sumRounds = s.SumRounds
	a.sumMoves = s.SumMoves
	a.measured = s.Gathered
	a.absorbed = s.Absorbed
	return a, nil
}

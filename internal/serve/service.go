// Package serve is the verdict service: gathering-as-a-service over
// the repo's evaluation engines. One Service answers per-pattern
// verdict queries — FSYNC outcome, SSYNC robustness, exact
// defeasibility — with a two-tier strategy:
//
//   - Hot path: a generated table (verdicts.bin, built by
//     cmd/verdictgen from the same engines and embedded in the binary)
//     maps the exact translation-invariant config.Key128 of every
//     connected pattern with n ≤ 8 to a packed Record. It is verified
//     once on first use; a covered query is then one binary search over
//     its sorted records: allocation-free, no engine runs at all.
//
//   - Miss path: anything the table does not cover — n ≥ 9 patterns,
//     relaxed-space (disconnected) starts, non-default algorithms — is
//     computed live by the same sweep/sim/adversary machinery, behind a
//     per-algorithm memo.Flight: concurrent identical queries collapse
//     to exactly one solver invocation (single-flight in mechanism, not
//     just in effect), and completed verdicts persist in the flight's
//     memo.Store so repeats are lookups.
//
// cmd/verdictd wraps the Service in an HTTP front-end (handlers in
// http.go); the Service itself is transport-free and fully testable
// in-process.
package serve

//go:generate go run repro/cmd/verdictgen -out verdicts.bin

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/adversary"
	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/memo"
	"repro/internal/metrics"
	"repro/internal/sched"
	"repro/internal/sim"
)

// MaxQueryRobots is the largest pattern a query may carry: the
// config.Key128 exact envelope, which both the table keys and the
// flight-store keys rely on for collision-free identity. A pattern
// inside it by size but with a spread past 15 has no exact key either,
// and is refused the same way (ErrOutsideEnvelope).
const MaxQueryRobots = config.MaxKeyNodes

var (
	// ErrUnknownAlgorithm wraps algorithm-resolution failures so the
	// HTTP layer can map them to 400 rather than 500.
	ErrUnknownAlgorithm = errors.New("serve: unknown algorithm")
	// ErrOutsideEnvelope wraps queries for patterns with no exact
	// config.Key128 — empty, more than MaxQueryRobots robots, or a
	// spread past 15 — so the HTTP layer can map them to 400.
	ErrOutsideEnvelope = errors.New("serve: pattern outside the exact-key query envelope")
)

// Source says which tier answered a query.
type Source uint8

const (
	// SourceTable: the generated table covered the pattern.
	SourceTable Source = iota
	// SourceSolved: this request ran the engines (it was the flight
	// leader, or uncontended).
	SourceSolved
	// SourceCached: another request's solve was reused — a completed
	// verdict from the flight's store, or an in-flight solve joined.
	SourceCached
)

// String names the tier for the JSON response.
func (s Source) String() string {
	switch s {
	case SourceTable:
		return "table"
	case SourceSolved:
		return "solved"
	default:
		return "cached"
	}
}

// Options configures a Service. The zero value serves the paper's
// algorithm with the table's own robustness axis.
type Options struct {
	// DefaultAlg is the core.ByName algorithm of queries that name
	// none. Default "full", the paper's Gatherer — the algorithm the
	// table is generated for.
	DefaultAlg string
	// Schedules is the miss path's SSYNC robustness axis (seeds
	// 1..Schedules). Default TableSchedules; capped at 63, the packed
	// field's maximum.
	Schedules int
	// AdvMaxN bounds exact defeasibility on the miss path: patterns
	// with more robots get verdict "undecided" instead of a solver
	// run. Default 9 — one past the table, where the solve is still
	// interactive. Capped at adversary.MaxRobots.
	AdvMaxN int
	// MaxRounds bounds each live run (0 = the engine default).
	MaxRounds int
	// Pprof mounts net/http/pprof under /debug/pprof/ on the Handler.
	// Off by default: profiling endpoints are opt-in surface.
	Pprof bool
}

func (o *Options) normalize() {
	if o.DefaultAlg == "" {
		o.DefaultAlg = "full"
	}
	if o.Schedules <= 0 {
		o.Schedules = TableSchedules
	}
	if o.Schedules > recRobustMax {
		o.Schedules = recRobustMax
	}
	if o.AdvMaxN <= 0 {
		o.AdvMaxN = 9
	}
	if o.AdvMaxN > adversary.MaxRobots {
		o.AdvMaxN = adversary.MaxRobots
	}
}

// Metrics are the Service's serving counters: registry series
// pre-resolved at construction, so the Verdict hot path is plain
// pointer increments — no registry lookups, no allocation (the E18
// allocs/op gate covers this).
type Metrics struct {
	Requests  *metrics.Counter // Verdict calls (verdictd_requests_total)
	TableHits *metrics.Counter // answered by the generated table
	Solves    *metrics.Counter // miss-path engine executions
	Cached    *metrics.Counter // miss-path answers reused from flight/store
	Errors    *metrics.Counter // failed queries (either tier)
	Sweeps    *metrics.Counter // streaming sweep requests
}

// Service answers verdict queries. Safe for concurrent use.
type Service struct {
	opts Options
	reg  *metrics.Registry
	met  Metrics

	// Transport latency histograms, pre-resolved like the counters.
	// Observing is mutex-and-array work — no allocation — but it still
	// happens in the HTTP layer, outside the Verdict hot path.
	hitLat  *metrics.QuantileHist
	missLat *metrics.QuantileHist

	mu      sync.Mutex
	engines map[string]*engine
}

// engine is the per-algorithm live tier: the memoized algorithm, its
// shared outcome store, one adversary shared by every decision, and
// the single-flight table in front of it all.
type engine struct {
	alg      core.Algorithm
	outcomes *memo.Outcomes
	adv      *adversary.Adversary
	flight   *memo.Flight[Record]
	solves   atomic.Int64
}

// NewService builds a Service; engines are created lazily per
// algorithm on first miss.
func NewService(opts Options) (*Service, error) {
	opts.normalize()
	if _, err := core.ByName(opts.DefaultAlg); err != nil {
		return nil, fmt.Errorf("%w %q", ErrUnknownAlgorithm, opts.DefaultAlg)
	}
	reg := metrics.NewRegistry()
	s := &Service{
		opts: opts,
		reg:  reg,
		met: Metrics{
			Requests:  reg.Counter("verdictd_requests_total"),
			TableHits: reg.Counter("verdictd_table_hits_total"),
			Solves:    reg.Counter("verdictd_solves_total"),
			Cached:    reg.Counter("verdictd_cached_total"),
			Errors:    reg.Counter("verdictd_errors_total"),
			Sweeps:    reg.Counter("verdictd_sweeps_total"),
		},
		hitLat:  reg.Histogram("verdictd_hit_latency_us"),
		missLat: reg.Histogram("verdictd_miss_latency_us"),
		engines: map[string]*engine{},
	}
	reg.GaugeFunc("verdictd_table_patterns", func() int64 { return int64(TableLen()) })
	return s, nil
}

// Metrics returns the serving counters.
func (s *Service) Metrics() *Metrics { return &s.met }

// Registry returns the Service's metrics registry — the /metrics
// exposition source, and the hook for embedding callers (cmd/verdictd,
// tests) to add their own series to the same page.
func (s *Service) Registry() *metrics.Registry { return s.reg }

// Options returns the normalized options the Service runs with.
func (s *Service) Options() Options { return s.opts }

// Schedules returns the robustness axis length of a record from the
// given source: table entries carry TableSchedules, live ones
// Options.Schedules.
func (s *Service) Schedules(src Source) int {
	if src == SourceTable {
		return TableSchedules
	}
	return s.opts.Schedules
}

// SolveCount returns how many engine executions the named algorithm's
// miss path has performed — the single-flight tests' probe. Zero for
// algorithms never missed on.
func (s *Service) SolveCount(algName string) int64 {
	if algName == "" {
		algName = s.opts.DefaultAlg
	}
	s.mu.Lock()
	e := s.engines[algName]
	s.mu.Unlock()
	if e == nil {
		return 0
	}
	return e.solves.Load()
}

// Verdict answers one query: the complete packed verdict for cfg under
// the named algorithm ("" = DefaultAlg). The hot path — a table-covered
// pattern under the default algorithm — is one binary search over the
// table and performs no allocation (benchmark-asserted); misses run the
// live engines behind per-key single-flight. A pattern with no exact
// config.Key128 fails with ErrOutsideEnvelope.
func (s *Service) Verdict(ctx context.Context, algName string, cfg config.Config) (Record, Source, error) {
	s.met.Requests.Inc()
	if algName == "" {
		algName = s.opts.DefaultAlg
	}
	if algName == "full" {
		if k, exact := cfg.Key128(); exact {
			if rec, ok := TableLookup(k); ok {
				s.met.TableHits.Inc()
				return rec, SourceTable, nil
			}
		}
	}
	rec, src, err := s.miss(ctx, algName, cfg)
	if err != nil {
		s.met.Errors.Inc()
	}
	return rec, src, err
}

func (s *Service) miss(ctx context.Context, algName string, cfg config.Config) (Record, Source, error) {
	key, exact := cfg.Key128()
	if cfg.Len() < 1 || !exact {
		return 0, SourceSolved, fmt.Errorf("%w: %d robots (want 1..%d, spread at most 15)", ErrOutsideEnvelope, cfg.Len(), MaxQueryRobots)
	}
	if err := ctx.Err(); err != nil {
		return 0, SourceSolved, err
	}
	e, err := s.engine(algName)
	if err != nil {
		return 0, SourceSolved, err
	}
	rec, shared, err := e.flight.Do(key, func() (Record, error) {
		e.solves.Add(1)
		s.met.Solves.Inc()
		return s.solve(e, cfg)
	})
	if err != nil {
		return 0, SourceSolved, err
	}
	if shared {
		s.met.Cached.Inc()
		return rec, SourceCached, nil
	}
	return rec, SourceSolved, nil
}

// engine returns (building if needed) the named algorithm's live tier.
func (s *Service) engine(algName string) (*engine, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if e, ok := s.engines[algName]; ok {
		return e, nil
	}
	base, err := core.ByName(algName)
	if err != nil {
		return nil, fmt.Errorf("%w %q", ErrUnknownAlgorithm, algName)
	}
	alg := core.Memoize(base, core.NewMemo())
	e := &engine{
		alg:      alg,
		outcomes: memo.NewOutcomes(),
		adv:      adversary.New(adversary.Options{Alg: alg}),
		flight:   memo.NewFlight(memo.NewStore[Record]()),
	}
	s.engines[algName] = e
	// Live views over the engine's two stores: the sim outcome memo
	// (configuration-graph facts) and the flight's verdict store
	// (completed Records). Gauge functions read the stores' atomics at
	// exposition time — always current, no write-path cost.
	outcomes, flight := e.outcomes, e.flight.Store()
	s.reg.GaugeFunc("verdictd_memo_hits", outcomes.Hits, "alg", algName)
	s.reg.GaugeFunc("verdictd_memo_misses", outcomes.Misses, "alg", algName)
	s.reg.GaugeFunc("verdictd_memo_states", outcomes.Created, "alg", algName)
	s.reg.GaugeFunc("verdictd_flight_records", flight.Created, "alg", algName)
	return e, nil
}

// solve computes one miss's Record with the live engines: the
// deterministic FSYNC run, the seeded SSYNC robustness axis, and —
// inside the adversary envelope — the exact defeasibility decision
// (the memoized solver, every defeat witness replay-verified; outside
// it the verdict is AdvUndecided).
func (s *Service) solve(e *engine, cfg config.Config) (Record, error) {
	opts := sim.Options{
		MaxRounds:        s.opts.MaxRounds,
		DetectCycles:     true,
		StopOnDisconnect: true,
		Outcomes:         e.outcomes,
	}
	res := sim.Run(e.alg, cfg, opts)
	robust := 0
	for seed := int64(1); seed <= int64(s.opts.Schedules); seed++ {
		if r := sched.Run(e.alg, cfg, sched.NewRandomSubset(seed), opts); r.Status == sim.Gathered {
			robust++
		}
	}
	adv, wkind, depth := AdvUndecided, sim.Status(0), 0
	if n := cfg.Len(); n <= s.opts.AdvMaxN && cfg.Connected() {
		// The Adversary is safe for concurrent use: concurrent misses
		// share its solver memo and reuse each other's game states.
		v, err := e.adv.Decide(cfg)
		if err != nil {
			return 0, err
		}
		switch v.Kind {
		case adversary.Safe:
			adv = AdvSafe
		case adversary.Defeatable:
			adv = AdvDefeatable
			wkind = v.Witness.Status()
			depth = v.Depth
		}
	}
	return PackRecord(res.Status, res.Rounds, res.Moves, robust, adv, wkind, depth), nil
}

package dist

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"time"

	"repro/internal/core"
	"repro/internal/enumerate"
	"repro/internal/memo"
	"repro/internal/metrics"
	"repro/internal/sweep"
)

// WorkUnit is one shard assignment: the full sweep descriptor plus the
// source range this worker should execute. Carrying the whole
// descriptor on every unit keeps workers stateless — any worker can
// pick up any shard, which is what lets the coordinator re-queue a
// crashed worker's shard on a fresh one.
type WorkUnit struct {
	Spec  sweep.SpecDesc `json:"spec"`
	Shard sweep.Range    `json:"shard"`
}

// WorkerState is the per-worker warm state shared across the shards a
// worker executes: the view→move cache and the configuration→outcome
// store. Successive shards of the same sweep reuse it (that is the
// whole point of the persistent `sweepd serve` worker — outcome
// suffixes walked for one shard splice into the next), and it resets
// automatically when a unit arrives for a different sweep.
type WorkerState struct {
	digest   string
	cache    *core.Memo
	outcomes *memo.Outcomes

	// Metrics, when non-nil, receives the worker's own series —
	// worker_shards_total, worker_shard_duration_us,
	// worker_index_seeks_total, the enum_* enumeration series, plus the
	// sweep engine's sweep_* series — for workers that expose a
	// /metrics sidecar (sweepd serve -pprof, verdictd's /sweep handler).
	Metrics *metrics.Registry

	// Sources, when non-nil, holds loaded pattern indexes (enumgen
	// artifacts). A unit whose space one covers seeks its shard straight
	// out of the index — no per-shard re-enumeration, which at n ≥ 9 is
	// most of a shard's startup time.
	Sources *sweep.IndexSet
}

func (st *WorkerState) forSpec(d sweep.SpecDesc) (*core.Memo, *memo.Outcomes) {
	if st == nil {
		return core.NewMemo(), memo.NewOutcomes()
	}
	if digest := d.Digest(); st.digest != digest {
		st.digest = digest
		st.cache = core.NewMemo()
		st.outcomes = memo.NewOutcomes()
	}
	return st.cache, st.outcomes
}

// RunShard executes one shard of the described sweep and writes the
// framed JSONL stream — header, cases with global indices, trailing
// summary — to w. It is the one shard executor: `sweepd serve` loops
// over it, `cmd/verify -worker` calls it once, and the in-process
// backend pipes it straight into ReadShard, so every backend speaks
// bit-identically the same protocol.
func RunShard(ctx context.Context, d sweep.SpecDesc, shard sweep.Range, w io.Writer, st *WorkerState) error {
	d.Normalize()
	if err := d.Validate(); err != nil {
		return err
	}
	spec, err := d.Spec()
	if err != nil {
		return err
	}
	spec.Cache, spec.OutcomeMemo = st.forSpec(d)
	indexed := false
	if st != nil {
		spec.Metrics = st.Metrics
		if src, ok := st.Sources.SourceFor(d); ok {
			spec.Source = src
			indexed = true
		}
	}
	full := spec.Source
	if total := full.Count(); !shard.Valid(total) {
		return fmt.Errorf("dist: shard %s out of range for %s (%d patterns)", shard, full.Label(), total)
	}
	if st != nil {
		if indexed {
			st.Metrics.Counter("worker_index_seeks_total").Inc()
		} else if ss, ok := full.(sweep.EnumStatsSource); ok {
			if es, built := ss.EnumStats(); built {
				recordEnumStats(st.Metrics, es)
			}
		}
	}
	spec.Source = sweep.Shard(full, shard)

	enc := json.NewEncoder(w)
	if err := enc.Encode(Header{Schema: SchemaVersion, Spec: d.Digest(), Shard: shard}); err != nil {
		return err
	}
	var memoBase memo.Stats
	if spec.OutcomeMemo != nil {
		memoBase = spec.OutcomeMemo.Stats()
	}
	start := time.Now()
	byStatus := map[string]int{}
	n := 0
	_, err = sweep.Stream(ctx, spec, func(cr sweep.CaseResult) error {
		c := CaseFromResult(cr, shard, d.Seeds)
		byStatus[c.Status]++
		n++
		return enc.Encode(c)
	})
	if err != nil {
		return err
	}
	elapsed := time.Since(start)
	stats := &WorkerStats{DurationUS: elapsed.Microseconds()}
	if secs := elapsed.Seconds(); secs > 0 {
		stats.PatternsPerSec = float64(shard.Len()) / secs
	}
	if spec.OutcomeMemo != nil {
		stats.Memo = spec.OutcomeMemo.Stats().Sub(memoBase)
	}
	if st != nil {
		st.Metrics.Counter("worker_shards_total").Inc()
		st.Metrics.Histogram("worker_shard_duration_us").Observe(stats.DurationUS)
	}
	return enc.Encode(Summary{EOF: true, Shard: shard, Cases: n, ByStatus: byStatus, Stats: stats})
}

// recordEnumStats publishes one enumeration's statistics to a
// registry: enum_patterns is the size-n count, enum_candidates the
// extensions the search made (every pattern of every size it visited
// but the one-node root, each once), enum_peak_frontier the largest
// size class (the size-n one) and enum_dedup_hit_rate_ppm the share of
// duplicate candidates in parts per million — 0, since the search
// produces none. The gauges keep the names of the
// generation-by-generation growth the search replaced, so dashboards
// read the same series.
func recordEnumStats(reg *metrics.Registry, es enumerate.Stats) {
	reg.Gauge("enum_patterns").Set(int64(es.Patterns))
	reg.Gauge("enum_candidates").Set(es.Candidates)
	reg.Gauge("enum_peak_frontier").Set(int64(es.PeakFrontier))
	reg.Gauge("enum_duration_us").Set(es.DurationUS)
	reg.Gauge("enum_dedup_hit_rate_ppm").Set(int64(es.DedupHitRate() * 1e6))
	reg.Gauge("enum_patterns_per_sec").Set(int64(es.PatternsPerSec()))
}

// Serve is the persistent worker loop behind `sweepd serve` and the
// local-process backend: it reads WorkUnit JSON lines from r, executes
// each shard with RunShard onto w (warm state carries across units),
// and returns on EOF. Any execution or protocol error is fatal — the
// coordinator treats a dead worker as a crashed one and re-queues its
// shard elsewhere, so dying loudly is the correct failure mode.
func Serve(ctx context.Context, r io.Reader, w io.Writer) error {
	return ServeState(ctx, r, w, &WorkerState{})
}

// ServeState is Serve with a caller-supplied WorkerState — the hook
// for daemons that pre-wire a metrics registry (sweepd serve -pprof)
// or want warm state to survive across Serve calls.
func ServeState(ctx context.Context, r io.Reader, w io.Writer, st *WorkerState) error {
	dec := json.NewDecoder(r)
	for {
		var u WorkUnit
		if err := dec.Decode(&u); err != nil {
			if err == io.EOF {
				return nil
			}
			return fmt.Errorf("dist: worker: reading work unit: %w", err)
		}
		if err := RunShard(ctx, u.Spec, u.Shard, w, st); err != nil {
			return fmt.Errorf("dist: worker: shard %s: %w", u.Shard, err)
		}
	}
}

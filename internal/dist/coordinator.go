package dist

import (
	"context"
	"fmt"
	"os"
	"sync"
	"time"

	"repro/internal/metrics"
	"repro/internal/sweep"
)

// Options configures a coordinated distributed sweep.
type Options struct {
	// Spec describes the sweep (normalized and digested internally).
	Spec sweep.SpecDesc
	// Shards is the number of source-range work units (default
	// 4 × Workers): several shards per worker keeps the pool busy when
	// shard runtimes vary, and bounds what a crash re-executes.
	Shards int
	// Workers is the number of concurrent worker nodes (default 1).
	Workers int
	// Backend supplies the worker nodes (required).
	Backend Backend
	// MaxRetries is how many times one shard may be re-queued after a
	// worker failure before the run aborts (default 3).
	MaxRetries int
	// Backoff is the delay before a failed shard's first retry,
	// doubling per subsequent attempt (default 100ms).
	Backoff time.Duration
	// CheckpointPath, when set, persists progress after every absorbed
	// shard. Run refuses an existing file (resume instead — a fresh
	// run would silently discard its progress); Resume requires one.
	CheckpointPath string
	// Progress, when non-nil, is called after every absorbed shard
	// with a cumulative progress sample.
	Progress func(Progress)
	// Metrics, when non-nil, receives the coordinator's fleet-wide
	// series: shard progress, retries, per-shard worker timings,
	// checkpoint-write durations, and the workers' aggregated memo
	// counters (from the v2 Summary.Stats blocks). Purely
	// observational — the merged report is bit-identical with or
	// without it.
	Metrics *metrics.Registry
	// Log, when non-nil, receives coordinator events: worker crashes,
	// re-queues, retries, source resolution. Results never flow through
	// it.
	Log func(format string, args ...any)
	// Sources, when non-nil, holds loaded pattern indexes (enumgen
	// artifacts). When one covers the sweep's space, planning reads the
	// pattern count straight off the index — the coordinator never
	// enumerates — and the sweep is bit-identical either way. Workers
	// carry their own set (WorkerState.Sources / `sweepd serve
	// -index`); this one only serves the coordinator's plan.
	Sources *sweep.IndexSet
}

func (o *Options) defaults() error {
	if o.Backend == nil {
		return fmt.Errorf("dist: no backend configured")
	}
	if o.Workers < 1 {
		o.Workers = 1
	}
	if o.Shards < 1 {
		o.Shards = 4 * o.Workers
	}
	if o.MaxRetries == 0 {
		o.MaxRetries = 3
	}
	if o.Backoff == 0 {
		o.Backoff = 100 * time.Millisecond
	}
	if o.Log == nil {
		o.Log = func(string, ...any) {}
	}
	return nil
}

// Run plans and executes a distributed sweep from scratch: partition
// the source into shards, dispatch them to the backend's workers,
// absorb each verified shard stream atomically into the shared
// aggregator, checkpoint after every absorption. The returned Report
// is bit-identical to sweep.Run of the same Spec in one process — at
// any shard count, worker count, or completion order.
func Run(ctx context.Context, opts Options) (*sweep.Report, error) {
	if err := opts.defaults(); err != nil {
		return nil, err
	}
	opts.Spec.Normalize()
	if err := opts.Spec.Validate(); err != nil {
		return nil, err
	}
	if opts.CheckpointPath != "" {
		if _, err := os.Stat(opts.CheckpointPath); err == nil {
			return nil, fmt.Errorf("dist: checkpoint %s already exists (resume it, or remove it for a fresh run)", opts.CheckpointPath)
		}
	}
	meta, err := planMeta(opts)
	if err != nil {
		return nil, err
	}
	if meta.Patterns == 0 {
		return sweep.NewAggregator(meta, false).Finish(), nil
	}
	plan := sweep.Partition(meta.Patterns, opts.Shards)
	agg := sweep.NewAggregator(meta, false)
	ck := &Checkpoint{
		Version: CheckpointVersion,
		Digest:  opts.Spec.Digest(),
		Spec:    opts.Spec,
		Plan:    plan,
	}
	if opts.CheckpointPath != "" {
		// Persist the plan before the first shard runs: a coordinator
		// preempted at any point — even immediately — leaves a
		// resumable checkpoint.
		snap, err := agg.Snapshot()
		if err != nil {
			return nil, err
		}
		ck.Agg = snap
		if err := SaveCheckpoint(opts.CheckpointPath, ck); err != nil {
			return nil, fmt.Errorf("dist: persisting checkpoint: %w", err)
		}
	}
	return run(ctx, opts, meta, ck, agg, ck.Remaining())
}

// Resume continues a distributed sweep from its checkpoint: completed
// shards are never re-executed, the aggregate picks up exactly where
// it stopped, and the final report equals an uninterrupted run's. The
// sweep descriptor comes from the checkpoint itself; Options.Spec is
// ignored.
func Resume(ctx context.Context, opts Options) (*sweep.Report, error) {
	if opts.CheckpointPath == "" {
		return nil, fmt.Errorf("dist: resume needs a checkpoint path")
	}
	if err := opts.defaults(); err != nil {
		return nil, err
	}
	ck, err := LoadCheckpoint(opts.CheckpointPath)
	if err != nil {
		return nil, err
	}
	opts.Spec = ck.Spec
	meta, err := planMeta(opts)
	if err != nil {
		return nil, err
	}
	if last := ck.Plan[len(ck.Plan)-1]; last.Hi != meta.Patterns {
		return nil, fmt.Errorf("dist: checkpoint plan covers %d patterns, source has %d", last.Hi, meta.Patterns)
	}
	agg, err := sweep.RestoreAggregator(ck.Agg)
	if err != nil {
		return nil, err
	}
	return run(ctx, opts, meta, ck, agg, ck.Remaining())
}

// planMeta resolves the sweep's source — pattern index when
// opts.Sources covers the space, live enumeration otherwise — and
// builds the report header the plan partitions. Either way the
// resolution is surfaced: an index seek logs and counts as
// coordinator_index_seeks_total; an enumeration publishes its enum_*
// statistics and logs its throughput line.
func planMeta(opts Options) (sweep.Meta, error) {
	spec, err := opts.Spec.SpecWith(opts.Sources)
	if err != nil {
		return sweep.Meta{}, err
	}
	meta := opts.Spec.MetaFor(spec) // forces Count: O(1) from an index
	if _, indexed := opts.Sources.SourceFor(opts.Spec); indexed {
		opts.Metrics.Counter("coordinator_index_seeks_total").Inc()
		opts.Log("dist: source %s: %d patterns from index (no enumeration)", meta.Source, meta.Patterns)
	} else if ss, ok := spec.Source.(sweep.EnumStatsSource); ok {
		if es, built := ss.EnumStats(); built {
			recordEnumStats(opts.Metrics, es)
			opts.Log("dist: enumerated %s: %d patterns in %.2fs (%.0f patterns/s, dedup hit rate %.3f, peak frontier %d)",
				meta.Source, es.Patterns, float64(es.DurationUS)/1e6,
				es.PatternsPerSec(), es.DedupHitRate(), es.PeakFrontier)
		}
	}
	return meta, nil
}

// Progress is one coordinator progress sample, delivered after every
// absorbed shard.
type Progress struct {
	// DoneShards / TotalShards count absorbed and planned shards
	// (resumed runs start with the checkpoint's absorbed count).
	DoneShards, TotalShards int
	// DonePatterns / TotalPatterns count the patterns those shards
	// cover.
	DonePatterns, TotalPatterns int
	// Retries counts shard re-queues after worker failures so far.
	Retries int
	// Elapsed is the wall time since this coordinator started (a
	// resume does not carry the preempted run's elapsed time).
	Elapsed time.Duration
}

// shardOutcome is one worker's answer for one shard: a verified result
// or the failure that voids the attempt.
type shardOutcome struct {
	idx int
	res *ShardResult
	err error
}

// run is the shared executor behind Run and Resume. All absorption
// happens on this goroutine — a shard is merged in one uninterruptible
// step only after its stream verified end to end, so a worker dying
// mid-shard can never leave a half-merged aggregate — and the
// checkpoint is rewritten atomically after every merge.
func run(ctx context.Context, opts Options, meta sweep.Meta, ck *Checkpoint, agg *sweep.Aggregator, remaining []int) (*sweep.Report, error) {
	// Fleet-wide series, registered up front so a scrape during the
	// first shard already sees every name (the registry accessors are
	// nil-safe, so an unconfigured coordinator pays only throwaway
	// metrics). None of this touches the Aggregator: instrumentation
	// must not perturb the merged report.
	reg := opts.Metrics
	shardsTotal := reg.Gauge("dist_shards_total")
	shardsDone := reg.Gauge("dist_shards_done")
	patternsDone := reg.Gauge("dist_patterns_done")
	retriesTotal := reg.Counter("dist_retries_total")
	shardDur := reg.Histogram("dist_shard_duration_us")
	ckWrite := reg.Histogram("dist_checkpoint_write_us")
	fleetHits := reg.Counter("dist_fleet_memo_hits_total")
	fleetMisses := reg.Counter("dist_fleet_memo_misses_total")
	fleetStates := reg.Counter("dist_fleet_memo_states_total")
	start := time.Now()
	donePatterns := 0
	for _, i := range ck.Done {
		donePatterns += ck.Plan[i].Len()
	}
	shardsTotal.Set(int64(len(ck.Plan)))
	shardsDone.Set(int64(len(ck.Done)))
	patternsDone.Set(int64(donePatterns))

	finish := func() (*sweep.Report, error) {
		report := agg.Finish()
		// PeakPending and the memo counters are per-process
		// diagnostics; they stay zero on a merged report (both are
		// excluded from JSON anyway).
		return report, nil
	}
	if len(remaining) == 0 {
		return finish()
	}
	d := opts.Spec
	d.Normalize()
	m := d.Seeds

	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	// Buffered to the full queue so a delayed retry can never block:
	// each shard is in flight at most once at a time.
	work := make(chan int, len(ck.Plan))
	for _, i := range remaining {
		work <- i
	}
	results := make(chan shardOutcome, opts.Workers)

	var wg sync.WaitGroup
	for s := 0; s < opts.Workers; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var w Worker
			defer func() {
				if w != nil {
					w.Close()
				}
			}()
			for {
				var idx int
				select {
				case idx = <-work:
				case <-ctx.Done():
					return
				}
				if w == nil {
					nw, err := opts.Backend.Start(ctx)
					if err != nil {
						select {
						case results <- shardOutcome{idx: idx, err: fmt.Errorf("starting worker: %w", err)}:
						case <-ctx.Done():
						}
						continue
					}
					w = nw
				}
				res, err := w.Run(ctx, WorkUnit{Spec: opts.Spec, Shard: ck.Plan[idx]})
				if err != nil {
					// The worker is unusable after a failed unit (its
					// stream position is unknown); replace it.
					w.Close()
					w = nil
				}
				select {
				case results <- shardOutcome{idx: idx, res: res, err: err}:
				case <-ctx.Done():
					return
				}
			}
		}()
	}
	defer wg.Wait()
	defer cancel() // runs before wg.Wait: stops the pool, then reaps it

	attempts := map[int]int{}
	retries := 0
	absorbed := len(ck.Done)
	for absorbed < len(ck.Plan) {
		var out shardOutcome
		select {
		case out = <-results:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
		// select picks at random when both are ready: a cancelled run
		// absorbs nothing more, so its checkpoint ends where it stopped.
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		shard := ck.Plan[out.idx]
		if out.err != nil {
			attempts[out.idx]++
			if attempts[out.idx] > opts.MaxRetries {
				return nil, fmt.Errorf("dist: shard %s failed %d times, giving up: %w", shard, attempts[out.idx], out.err)
			}
			retries++
			retriesTotal.Inc()
			delay := opts.Backoff << (attempts[out.idx] - 1)
			opts.Log("dist: shard %s attempt %d failed (%v); re-queueing in %s", shard, attempts[out.idx], out.err, delay)
			idx := out.idx
			go func() {
				select {
				case <-time.After(delay):
					work <- idx // buffered to the full plan: never blocks
				case <-ctx.Done():
				}
			}()
			continue
		}
		// Absorb atomically: parse and verify every case first, merge
		// only if the whole shard checks out.
		crs, err := shardCases(out.res, shard, m)
		if err != nil {
			return nil, err
		}
		for _, cr := range crs {
			agg.Absorb(cr)
		}
		ck.Done = append(ck.Done, out.idx)
		absorbed++
		donePatterns += shard.Len()
		shardsDone.Set(int64(absorbed))
		patternsDone.Set(int64(donePatterns))
		if ws := out.res.Summary.Stats; ws != nil {
			shardDur.Observe(ws.DurationUS)
			fleetHits.Add(ws.Memo.Hits)
			fleetMisses.Add(ws.Memo.Misses)
			fleetStates.Add(ws.Memo.Created)
		}
		if opts.CheckpointPath != "" {
			snap, err := agg.Snapshot()
			if err != nil {
				return nil, err
			}
			ck.Agg = snap
			ckStart := time.Now()
			if err := SaveCheckpoint(opts.CheckpointPath, ck); err != nil {
				return nil, fmt.Errorf("dist: persisting checkpoint: %w", err)
			}
			ckWrite.Observe(time.Since(ckStart).Microseconds())
		}
		if opts.Progress != nil {
			opts.Progress(Progress{
				DoneShards:    absorbed,
				TotalShards:   len(ck.Plan),
				DonePatterns:  donePatterns,
				TotalPatterns: meta.Patterns,
				Retries:       retries,
				Elapsed:       time.Since(start),
			})
		}
	}
	return finish()
}

// shardCases parses a verified shard stream into engine results,
// checking the index bookkeeping the aggregator's correctness rides
// on: exactly shard.Len()*m cases, densely indexed from the shard
// base, patterns grouped with their schedules in order.
func shardCases(res *ShardResult, shard sweep.Range, m int) ([]sweep.CaseResult, error) {
	if len(res.Cases) != shard.Len()*m {
		return nil, fmt.Errorf("dist: shard %s returned %d cases, want %d", shard, len(res.Cases), shard.Len()*m)
	}
	out := make([]sweep.CaseResult, 0, len(res.Cases))
	base := shard.Lo * m
	for k, c := range res.Cases {
		if c.Index != base+k || c.Pattern != shard.Lo+k/m {
			return nil, fmt.Errorf("dist: shard %s case %d is mis-indexed (index %d, pattern %d)", shard, k, c.Index, c.Pattern)
		}
		cr, err := c.Result()
		if err != nil {
			return nil, err
		}
		out = append(out, cr)
	}
	return out, nil
}

package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync/atomic"

	"repro/internal/dist"
	"repro/internal/enumerate"
	"repro/internal/memo"
	"repro/internal/metrics"
	"repro/internal/sweep"
)

// fleetShards is how many source ranges dist-n9-fleet splits the space
// into: eight per worker, so shard scheduling and per-shard protocol
// costs are part of every rep.
const fleetShards = 16

// fleetSweep is dist-n9-fleet: the coordinator over in-process workers
// that seek their shards in a pattern index, with a checkpoint written
// after every shard.
type fleetSweep struct {
	n   int
	dir string
	set *sweep.IndexSet
	est enumerate.Stats
	seq int
	// Layer counters of the last traced rep.
	reg        *metrics.Registry
	wire       atomic.Int64
	checkpoint int64
}

// setupFleet builds the pattern index the workers seek in and takes it
// through its file format: BuildIndex, WriteTo, ReadIndex.
func setupFleet(e *env, l *lane) (sweeper, error) {
	s := &fleetSweep{n: e.size.distN, dir: filepath.Join(e.work, "fleet"), set: &sweep.IndexSet{}}
	if err := os.MkdirAll(s.dir, 0o755); err != nil {
		return nil, err
	}
	sp := l.begin()
	ix, est := enumerate.BuildIndex(s.n, workers)
	l.end(sp, spanBuildIndex, 0, 0)
	s.est = est
	path := filepath.Join(s.dir, "index.bin")
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	if _, err := ix.WriteTo(f); err != nil {
		f.Close()
		return nil, err
	}
	if err := f.Close(); err != nil {
		return nil, err
	}
	loaded, err := enumerate.LoadIndex(path)
	if err != nil {
		return nil, err
	}
	if loaded.Digest() != ix.Digest() {
		return nil, fmt.Errorf("index digest changed through its file: %s, then %s", ix.Digest(), loaded.Digest())
	}
	s.set.Add(loaded)
	return s, nil
}

func (s *fleetSweep) run(ctx context.Context, b dist.Backend, reg *metrics.Registry) (*sweep.Report, error) {
	s.seq++
	ck := filepath.Join(s.dir, fmt.Sprintf("checkpoint-%d.json", s.seq))
	defer os.Remove(ck)
	r, err := dist.Run(ctx, dist.Options{
		Spec:           sweep.SpecDesc{N: s.n},
		Shards:         fleetShards,
		Workers:        workers,
		Backend:        b,
		Sources:        s.set,
		CheckpointPath: ck,
		Metrics:        reg,
	})
	if err != nil {
		return nil, err
	}
	if fi, err := os.Stat(ck); err == nil {
		s.checkpoint = fi.Size()
	}
	return r, nil
}

func (s *fleetSweep) runs() int64 { return int64(enumerate.KnownCounts[s.n]) }

func (s *fleetSweep) warmup(ctx context.Context) (*sweep.Report, error) { return s.rep(ctx) }

func (s *fleetSweep) rep(ctx context.Context) (*sweep.Report, error) {
	return s.run(ctx, dist.InprocBackend{Sources: s.set}, nil)
}

func (s *fleetSweep) traced(ctx context.Context, tr *tracer) (*sweep.Report, error) {
	s.reg = metrics.NewRegistry()
	s.wire.Store(0)
	return s.run(ctx, &tracedBackend{tr: tr, sources: s.set, wire: &s.wire}, s.reg)
}

func (s *fleetSweep) check(r *sweep.Report) error { return checkFSYNC(s.n, r) }

func (s *fleetSweep) layers(out map[string]float64) {
	enumLayers(out, s.est)
	out["dist.wire_mb"] = float64(s.wire.Load()) / (1 << 20)
	out["dist.checkpoint_kb"] = float64(s.checkpoint) / 1024
	ckw := s.reg.Histogram("dist_checkpoint_write_us")
	out["dist.checkpoint_write_p50_us"] = float64(ckw.Quantile(0.5))
	out["dist.checkpoint_write_max_us"] = float64(ckw.Max())
	out["dist.retries"] = float64(s.reg.Counter("dist_retries_total").Value())
	hits := s.reg.Counter("dist_fleet_memo_hits_total").Value()
	misses := s.reg.Counter("dist_fleet_memo_misses_total").Value()
	states := s.reg.Counter("dist_fleet_memo_states_total").Value()
	memoLayers(out, memo.Stats{Hits: hits, Misses: misses}, states)
}

func (s *fleetSweep) close() { os.RemoveAll(s.dir) }

// tracedBackend is dist.InprocBackend with spans: each worker is a lane,
// and each shard is a dist.shard span around RunShard into a buffer and
// ReadShard back out of it — the path InprocBackend takes.
type tracedBackend struct {
	tr      *tracer
	sources *sweep.IndexSet
	wire    *atomic.Int64
}

func (b *tracedBackend) Name() string { return "inproc-traced" }

func (b *tracedBackend) Start(ctx context.Context) (dist.Worker, error) {
	return &tracedWorker{b: b, l: b.tr.lane(true), st: &dist.WorkerState{Sources: b.sources}}, nil
}

type tracedWorker struct {
	b  *tracedBackend
	l  *lane
	st *dist.WorkerState
}

func (w *tracedWorker) Run(ctx context.Context, u dist.WorkUnit) (*dist.ShardResult, error) {
	trace := uint64(u.Shard.Lo) + 1
	shard := w.l.begin()
	defer w.l.end(shard, spanShard, 0, trace)
	var buf bytes.Buffer
	sp := w.l.begin()
	err := dist.RunShard(ctx, u.Spec, u.Shard, &buf, w.st)
	w.l.end(sp, spanRunShard, shard.id, trace)
	if err != nil {
		return nil, err
	}
	w.b.wire.Add(int64(buf.Len()))
	sp = w.l.begin()
	res, err := dist.ReadShard(json.NewDecoder(&buf), dist.Header{Schema: dist.SchemaVersion, Spec: u.Spec.Digest(), Shard: u.Shard})
	w.l.end(sp, spanReadShard, shard.id, trace)
	return res, err
}

func (w *tracedWorker) Close() error {
	w.l.done()
	return nil
}

package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"
)

// The traced run records spans from the benchmark's own code, around
// its calls into each layer's public functions: the program itself is
// not instrumented. Spans stay in memory until the run ends.

// spanName says what a span timed: mostly the public call it wraps.
// A code rather than a string keeps spans free of pointers, so the
// garbage collector never scans the buffers a traced run fills.
type spanName uint8

const (
	spanRep spanName = iota
	spanConnectedStats
	spanBuildIndex
	spanKeysStats
	spanSimRun
	spanSchedRun
	spanClassify
	spanDeliver
	spanAbsorb
	spanDecide
	spanShard
	spanRunShard
	spanReadShard
	spanRequest
	spanWait
	spanRoundtrip
	spanHandler
	numSpanNames
)

var spanNames = [numSpanNames]string{
	spanRep:            "rep",
	spanConnectedStats: "enumerate.ConnectedStats",
	spanBuildIndex:     "enumerate.BuildIndex",
	spanKeysStats:      "enumerate.KeysStats",
	spanSimRun:         "sim.Run",
	spanSchedRun:       "sched.Run",
	spanClassify:       "sweep.Classify",
	spanDeliver:        "sweep.deliver", // a worker waiting to hand a result to the aggregator
	spanAbsorb:         "sweep.Absorb",
	spanDecide:         "adversary.Decide",
	spanShard:          "dist.shard",
	spanRunShard:       "dist.RunShard",
	spanReadShard:      "dist.ReadShard",
	spanRequest:        "loadgen.request", // from a request's due time to its answer
	spanWait:           "loadgen.wait",    // the generator idle until the next due time
	spanRoundtrip:      "client.roundtrip",
	spanHandler:        "serve.handler",
}

func (n spanName) MarshalText() ([]byte, error) { return []byte(spanNames[n]), nil }

// span is one timed call. Parent is the span that caused it (0 for a
// root); spans of one pattern or one request share Trace.
type span struct {
	ID     uint64   `json:"id"`
	Parent uint64   `json:"parent"`
	Trace  uint64   `json:"trace"`
	Lane   int      `json:"lane"`
	Name   spanName `json:"name"`
	Start  int64    `json:"start_ns"`
	End    int64    `json:"end_ns"`
	Self   int64    `json:"self_ns"`
}

func (s span) dur() int64 { return s.End - s.Start }

// tracer collects spans from any number of lanes. Times are
// nanoseconds since the tracer was made.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	lanes []*lane
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// at converts a wall-clock instant to tracer time.
func (t *tracer) at(w time.Time) int64 { return int64(w.Sub(t.epoch)) }

// lane opens a span buffer. A worker lane is one goroutine doing the
// workload's work; its wall time between open and close counts toward
// trace.unattributed_ratio. A lane may be shared by goroutines (the
// server's connection handlers share one), so it takes a lock.
func (t *tracer) lane(worker bool) *lane {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	l := &lane{t: t, id: len(t.lanes), worker: worker, open: t.now(), close: -1}
	t.lanes = append(t.lanes, l)
	return l
}

// lane is one buffer of spans. Every method is a no-op on a nil lane,
// so untraced code paths call them unconditionally.
type lane struct {
	t           *tracer
	id          int
	worker      bool
	mu          sync.Mutex
	seq         uint64
	spans       []span
	open, close int64
}

// pending is a span that has started: its id is already fixed, so
// children can name it as their parent before it ends.
type pending struct {
	id    uint64
	start int64
}

func (l *lane) begin() pending {
	if l == nil {
		return pending{}
	}
	return pending{id: l.newID(), start: l.t.now()}
}

// newID reserves a span id, for a span whose times the caller will
// supply to add.
func (l *lane) newID() uint64 {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.seq++
	return uint64(l.id+1)<<40 | l.seq
}

// since is how long ago p began, in ns; 0 on a nil lane.
func (l *lane) since(p pending) int64 {
	if l == nil {
		return 0
	}
	return l.t.now() - p.start
}

func (l *lane) end(p pending, name spanName, parent, trace uint64) {
	if l == nil {
		return
	}
	l.add(span{ID: p.id, Parent: parent, Trace: trace, Name: name, Start: p.start, End: l.t.now()})
}

// add records a span whose times the caller measured itself.
func (l *lane) add(s span) {
	if l == nil {
		return
	}
	s.Lane = l.id
	l.mu.Lock()
	l.spans = append(l.spans, s)
	l.mu.Unlock()
}

// done closes a worker lane: its wall time ends here.
func (l *lane) done() {
	if l == nil {
		return
	}
	l.mu.Lock()
	l.close = l.t.now()
	l.mu.Unlock()
}

// spans returns every span with its self time filled in: its duration
// minus the part of it that its children cover.
func (t *tracer) spans() []span {
	t.mu.Lock()
	var all []span
	for _, l := range t.lanes {
		l.mu.Lock()
		all = append(all, l.spans...)
		l.mu.Unlock()
	}
	t.mu.Unlock()
	children := map[uint64][]interval{}
	for _, s := range all {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], interval{s.Start, s.End})
		}
	}
	for i := range all {
		s := &all[i]
		s.Self = s.dur() - covered(children[s.ID], s.Start, s.End)
	}
	return all
}

// unattributed is the share of worker-lane wall time that no span on
// the lane covers: time the traced run cannot attribute to any layer.
func (t *tracer) unattributed() float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var wall, free int64
	for _, l := range t.lanes {
		if !l.worker {
			continue
		}
		l.mu.Lock()
		end := l.close
		if end < 0 {
			end = t.now()
		}
		ivs := make([]interval, len(l.spans))
		for i, s := range l.spans {
			ivs[i] = interval{s.Start, s.End}
		}
		l.mu.Unlock()
		wall += end - l.open
		free += end - l.open - covered(ivs, l.open, end)
	}
	if wall == 0 {
		return 0
	}
	return float64(free) / float64(wall)
}

// write stores the spans as JSON lines.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans() {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	return nil
}

type interval struct{ lo, hi int64 }

// covered returns how much of [lo, hi) the union of ivs covers.
func covered(ivs []interval, lo, hi int64) int64 {
	if len(ivs) == 0 {
		return 0
	}
	s := append([]interval(nil), ivs...)
	sort.Slice(s, func(i, j int) bool { return s[i].lo < s[j].lo })
	var total int64
	cur := lo
	for _, iv := range s {
		a, b := max(iv.lo, cur), min(iv.hi, hi)
		if b > a {
			total += b - a
			cur = b
		}
	}
	return total
}

// layerStats summarises spans by name.
type layerStats struct {
	durs [numSpanNames][]float64 // durations in ns
	self [numSpanNames]int64     // summed self time in ns
}

func summarise(spans []span) *layerStats {
	ls := &layerStats{}
	for _, s := range spans {
		ls.durs[s.Name] = append(ls.durs[s.Name], float64(s.dur()))
		ls.self[s.Name] += s.Self
	}
	return ls
}

// calls is how many spans carry the name.
func (ls *layerStats) calls(name spanName) float64 { return float64(len(ls.durs[name])) }

// busyMS is the named spans' summed self time in milliseconds.
func (ls *layerStats) busyMS(name spanName) float64 { return float64(ls.self[name]) / 1e6 }

// max is the longest of the named spans in unit.
func (ls *layerStats) max(name spanName, unit time.Duration) float64 {
	var m float64
	for _, d := range ls.durs[name] {
		m = max(m, d)
	}
	return m / float64(unit)
}

// pct is the p-quantile of the named spans' durations in unit, 0 when
// the sample is too small to support it.
func (ls *layerStats) pct(name spanName, p float64, unit time.Duration) float64 {
	var v float64
	var ok bool
	if p == 0.5 {
		v, ok = median(ls.durs[name]), len(ls.durs[name]) > 0
	} else {
		v, ok = percentile(ls.durs[name], p)
	}
	if !ok {
		return 0
	}
	return v / float64(unit)
}

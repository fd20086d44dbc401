package core

import (
	"sync"

	"repro/internal/vision"
)

// PackedAlgorithm is the fast path of the packed engine: an Algorithm
// that can also decide from a bitmask view. The transition kernel
// (internal/step) uses ComputePacked (and stays allocation-free)
// whenever the algorithm implements it; any other algorithm decides
// through Compute on the unpacked view. Implementations must
// agree with Compute on every view — ComputePacked(pv) must equal
// Compute(v) whenever pv is the packing of v (the equivalence test in
// the root package enforces this for every shipped algorithm).
type PackedAlgorithm interface {
	Algorithm
	ComputePacked(pv vision.PackedView) Move
}

// memoTable is one algorithm's lazily filled, concurrency-safe memo
// from packed views to moves. An oblivious algorithm is a pure function
// of the view (obliviousness is structural — Compute receives nothing
// else), so its decisions can be cached indefinitely: the 3652-pattern
// exhaustive sweep revisits a small set of distinct views thousands of
// times, and with a warm table every revisit is a lock-cheap hit
// instead of a map-of-coords allocation plus rule evaluation.
//
// The table is sharded to keep the read lock uncontended across a
// worker pool; the read path does not allocate.
type memoTable struct {
	shards [memoShards]memoShard
}

const memoShards = 16

type memoShard struct {
	mu sync.RWMutex
	m  map[uint64]Move
}

func newMemoTable() *memoTable {
	t := &memoTable{}
	for i := range t.shards {
		t.shards[i].m = make(map[uint64]Move)
	}
	return t
}

func (t *memoTable) load(key uint64) (Move, bool) {
	s := &t.shards[key%memoShards]
	s.mu.RLock()
	mv, ok := s.m[key]
	s.mu.RUnlock()
	return mv, ok
}

func (t *memoTable) store(key uint64, mv Move) {
	s := &t.shards[key%memoShards]
	s.mu.Lock()
	s.m[key] = mv
	s.mu.Unlock()
}

func (t *memoTable) len() int {
	n := 0
	for i := range t.shards {
		s := &t.shards[i]
		s.mu.RLock()
		n += len(s.m)
		s.mu.RUnlock()
	}
	return n
}

// compute returns alg's decision for the packed view, consulting the
// table first and filling it on a miss. Concurrent misses may both
// evaluate alg, which is harmless: alg is deterministic, so they store
// the same move.
func (t *memoTable) compute(alg Algorithm, pv vision.PackedView) Move {
	key := pv.Key64()
	if mv, ok := t.load(key); ok {
		return mv
	}
	mv := alg.Compute(pv.Unpack())
	t.store(key, mv)
	return mv
}

// Memo is a shareable view→move cache: a registry of per-algorithm
// memo tables keyed by Algorithm.Name(). Keying by name means one Memo
// can safely back a whole ablation series or a mixed-algorithm sweep —
// two algorithms never read each other's cached moves, even for the
// same view. (Algorithms with equal names are assumed to decide
// equally; every shipped algorithm encodes its variant in its name.)
// Build with NewMemo; the zero value is not ready.
type Memo struct {
	mu     sync.Mutex
	tables map[string]*memoTable
}

// NewMemo returns an empty cache.
func NewMemo() *Memo {
	return &Memo{tables: make(map[string]*memoTable)}
}

// forAlg returns the named algorithm's own table, creating it on first
// use. Memoize resolves it once per wrap, so the per-view hot path
// never takes this lock.
func (m *Memo) forAlg(name string) *memoTable {
	m.mu.Lock()
	defer m.mu.Unlock()
	t := m.tables[name]
	if t == nil {
		t = newMemoTable()
		m.tables[name] = t
	}
	return t
}

// Len returns the number of distinct (algorithm, view) decisions
// memoized so far.
func (m *Memo) Len() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	n := 0
	for _, t := range m.tables {
		n += t.len()
	}
	return n
}

// Memoized adapts any Algorithm to a PackedAlgorithm by backing
// ComputePacked with its table from a Memo. Name, VisibilityRange and
// Compute delegate, so reports and the map-based Compute are unchanged.
// Build with Memoize.
type Memoized struct {
	alg   Algorithm
	table *memoTable
}

// Memoize wraps alg with its per-name table from memo (a fresh cache
// when memo is nil). Passing one Memo to several Memoize calls — or to
// several sweeps via sweep.Spec.Cache — shares the cache
// across them; decisions stay segregated per algorithm name.
func Memoize(alg Algorithm, memo *Memo) Memoized {
	if memo == nil {
		memo = NewMemo()
	}
	return Memoized{alg: alg, table: memo.forAlg(alg.Name())}
}

// Name implements Algorithm.
func (m Memoized) Name() string { return m.alg.Name() }

// VisibilityRange implements Algorithm.
func (m Memoized) VisibilityRange() int { return m.alg.VisibilityRange() }

// Compute implements Algorithm.
func (m Memoized) Compute(v vision.View) Move { return m.alg.Compute(v) }

// ComputePacked implements PackedAlgorithm.
func (m Memoized) ComputePacked(pv vision.PackedView) Move { return m.table.compute(m.alg, pv) }

var _ PackedAlgorithm = Memoized{}

package core

import (
	"math/bits"
	"sync"
	"sync/atomic"

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
// times, and with a warm table every revisit is a few atomic loads
// instead of a map-of-coords allocation plus rule evaluation.
//
// The table is insert-only and open-addressed over atomic words. Each
// slot holds a view's Key64 with its move folded into bits the key
// never uses (moveShift), so a slot is written once, whole, and a zero
// slot is empty: Key64 is never zero, since every view holds its
// observer. A hit is an atomic pointer load of the slot array and a
// linear probe of atomic loads; it writes no shared memory, so readers
// on every core share the array's cache lines. A miss inserts under mu,
// doubling the array past ¾ load and swapping the pointer. A reader
// still on the old array may miss an entry made since and recompute
// it, which is harmless: decisions are deterministic, and the insert
// finds the entry already there.
type memoTable struct {
	slots atomic.Pointer[[]atomic.Uint64]
	mu    sync.Mutex // serializes inserts and growth
	n     int        // entries, guarded by mu
}

// moveShift places a move in the slot word: Key64 uses bits 0–36 (the
// occupancy mask of at most 37 disk nodes) and 58–59 (the range), so
// bits 40–47 are free for the uint8 move.
const (
	moveShift = 40
	moveBits  = uint64(0xff) << moveShift
)

// memoInitialSlots is the slot count of a fresh table, a power of two;
// the table doubles as it fills.
const memoInitialSlots = 64

func newMemoTable() *memoTable {
	t := &memoTable{}
	slots := make([]atomic.Uint64, memoInitialSlots)
	t.slots.Store(&slots)
	return t
}

// probe looks key up in slots (a power-of-two count, at most ¾ full):
// the move and true on a hit, or the index of the empty slot that ends
// the probe and false. The probe starts at the top bits of a
// multiplicative hash and walks linearly.
func probe(slots []atomic.Uint64, key uint64) (Move, int, bool) {
	mask := len(slots) - 1
	for i := int((key * 0x9e3779b97f4a7c15) >> (64 - bits.Len(uint(mask)))); ; i = (i + 1) & mask {
		s := slots[i].Load()
		if s == 0 {
			return 0, i, false
		}
		if s&^moveBits == key {
			return Move((s & moveBits) >> moveShift), i, true
		}
	}
}

func (t *memoTable) load(key uint64) (Move, bool) {
	mv, _, ok := probe(*t.slots.Load(), key)
	return mv, ok
}

func (t *memoTable) store(key uint64, mv Move) {
	t.mu.Lock()
	defer t.mu.Unlock()
	slots := *t.slots.Load()
	if _, _, ok := probe(slots, key); ok {
		return
	}
	if 4*(t.n+1) > 3*len(slots) {
		grown := make([]atomic.Uint64, 2*len(slots))
		for i := range slots {
			if s := slots[i].Load(); s != 0 {
				_, j, _ := probe(grown, s&^moveBits)
				grown[j].Store(s)
			}
		}
		t.slots.Store(&grown)
		slots = grown
	}
	_, i, _ := probe(slots, key)
	slots[i].Store(key | uint64(mv)<<moveShift)
	t.n++
}

func (t *memoTable) len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.n
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

// Package memo is the shared configuration-keyed state store: one
// sharded, lock-striped, publish-once map from exact
// translation-invariant pattern keys (config.Key128, phase-folded by
// Key128.WithPhase where a state carries a scheduler phase) to final
// verdicts, consumed by every layer that caches facts about
// configurations — the run-outcome memo (the memoized walk of
// internal/sim's run loop under FSYNC and the periodic schedulers;
// random schedules share no-mover facts through it), and the
// adversarial safety-game solver (internal/adversary). The machinery
// grew up inside the adversary solver; this package is its
// extraction, generalized over the stored value so both clients share
// one sharding scheme and one publication discipline. A state with no
// exact key (more than config.MaxKeyNodes robots, or a spread past 15,
// which only relaxed starts reach) is not memoized at all: its client
// runs it unmemoized.
//
// The store's own discipline is single-flight in effect, not in
// mechanism: there is no per-key in-flight tracking. Instead, values
// are published only once final — in-flight (partial) state never
// enters the store — and publication is first-write-wins, so a reader
// either misses (and computes the fact itself) or sees a complete,
// immutable value. Clients are sound because the facts they store are
// unique properties of the key (a game verdict, a deterministic run's
// outcome): duplicate concurrent computations produce equal values,
// making the publish race benign and the winner irrelevant. Workloads
// where duplicated computation is too expensive to tolerate — a
// serving hot path hit by a thundering herd of identical queries —
// opt into Flight, which layers a real in-flight wait table over the
// store so each key is computed at most once concurrently.
package memo

import (
	"sync"
	"sync/atomic"
	"unsafe"

	"repro/internal/config"
)

// Shards is the lock-striping width of a Store. 64 shards keep
// contention negligible for any worker count a sweep runs (the
// per-shard critical sections are single map operations).
const Shards = 64

// Store is the sharded concurrent fact store: a map from config.Key128
// to V, lock-striped over 64 shards. Values must be published only
// once final (see the package comment); publication is
// first-write-wins. A Store is safe for concurrent use by any number
// of goroutines. Build with NewStore; the zero value is not usable.
type Store[V any] struct {
	shards [Shards]shard[V]

	created atomic.Int64
	hits    atomic.Int64
	misses  atomic.Int64
}

type shard[V any] struct {
	mu sync.RWMutex
	m  map[config.Key128]V
	// pad the shard to its own cache line: every Load takes the read
	// lock, which writes the RWMutex's reader count, and two shards to
	// a line would make workers probing different shards contend.
	_ [64 - unsafe.Sizeof(sync.RWMutex{}) - unsafe.Sizeof(map[config.Key128]V(nil))]byte
}

// NewStore builds an empty store.
func NewStore[V any]() *Store[V] {
	s := &Store[V]{}
	for i := range s.shards {
		s.shards[i].m = make(map[config.Key128]V)
	}
	return s
}

// shardOf mixes the 128-bit key down to a shard index.
func shardOf(k config.Key128) int {
	h := k.Lo*0x9e3779b97f4a7c15 ^ k.Hi
	return int(h >> (64 - 6)) // top bits of the multiplied hash spread best
}

// Load returns the published value for a key, if any, and counts the
// lookup in the hit/miss statistics.
func (s *Store[V]) Load(key config.Key128) (V, bool) {
	sh := &s.shards[shardOf(key)]
	sh.mu.RLock()
	v, ok := sh.m[key]
	sh.mu.RUnlock()
	if ok {
		s.hits.Add(1)
	} else {
		s.misses.Add(1)
	}
	return v, ok
}

// Publish stores a final value, keeping any already-published one
// (first-write-wins — concurrent publishers hold equivalent values by
// the package contract) and counting each distinct key once.
func (s *Store[V]) Publish(key config.Key128, v V) {
	sh := &s.shards[shardOf(key)]
	sh.mu.Lock()
	if _, dup := sh.m[key]; !dup {
		sh.m[key] = v
		s.created.Add(1)
	}
	sh.mu.Unlock()
}

// Created returns the number of distinct keys published so far.
func (s *Store[V]) Created() int64 { return s.created.Load() }

// Hits returns the number of Loads that found a published value.
func (s *Store[V]) Hits() int64 { return s.hits.Load() }

// Misses returns the number of Loads that found nothing.
func (s *Store[V]) Misses() int64 { return s.misses.Load() }

// Stats is a point-in-time snapshot of a store's counters — the one
// memo-statistics currency every consumer shares (sweep reports,
// worker wire summaries, CLI stderr tallies, /metrics gauges).
type Stats struct {
	Hits    int64 `json:"hits"`
	Misses  int64 `json:"misses"`
	Created int64 `json:"created"`
}

// Stats snapshots the store's cumulative counters. The three loads are
// not atomic as a group; under concurrent traffic the snapshot is a
// consistent-enough diagnostic, not a transaction.
func (s *Store[V]) Stats() Stats {
	return Stats{Hits: s.hits.Load(), Misses: s.misses.Load(), Created: s.created.Load()}
}

// Sub returns the counter deltas since base — the per-run view over a
// long-lived shared store.
func (s Stats) Sub(base Stats) Stats {
	return Stats{Hits: s.Hits - base.Hits, Misses: s.Misses - base.Misses, Created: s.Created - base.Created}
}

// Add returns the component-wise sum — fleet aggregation across
// workers.
func (s Stats) Add(o Stats) Stats {
	return Stats{Hits: s.Hits + o.Hits, Misses: s.Misses + o.Misses, Created: s.Created + o.Created}
}

// Lookups returns the total number of store consultations.
func (s Stats) Lookups() int64 { return s.Hits + s.Misses }

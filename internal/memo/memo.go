// Package memo is the shared configuration-keyed state store: one
// insert-only, lock-free, publish-once table from exact
// translation-invariant pattern keys (config.Key128, phase-folded by
// Key128.WithPhase where a state carries a scheduler phase) to final
// verdicts, consumed by every layer that caches facts about
// configurations — the run-outcome memo (the memoized walk of
// internal/sim's run loop under FSYNC and the periodic schedulers;
// random schedules share no-mover facts through it), and the
// adversarial safety-game solver (internal/adversary). The machinery
// grew up inside the adversary solver; this package is its
// extraction, generalized over the stored value so both clients share
// one table and one publication discipline. A state with no exact key
// (more than config.MaxKeyNodes robots, or a spread past 15, which
// only relaxed starts reach) is not memoized at all: its client runs
// it unmemoized.
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
//
// The Store follows the design of internal/core's view→move memo
// table (atomic slot words behind an atomic pointer, inserts and
// growth under a mutex) but keeps its two-word keys and values in an
// arena the slots index. The core table stays separate: its one slot
// word holds both the key and the move, so its probe touches one
// cache line, and an arena would cost every view probe a second one.
package memo

import (
	"math/bits"
	"sync"
	"sync/atomic"

	"repro/internal/config"
)

// Store is the concurrent fact store: an insert-only open-addressed
// table from config.Key128 to V. Values must be published only once
// final (see the package comment); publication is first-write-wins.
// A Store is safe for concurrent use by any number of goroutines.
// Build with NewStore; the zero value is not usable.
//
// A slot is one atomic word: the top half of the key's hash, and the
// index + 1 of the key's entry in an arena of fixed-size chunks (so a
// zero slot is empty). Chunks never move, and an entry is written
// before its slot is published. A Load is a probe of atomic loads that
// compares the full key only where the hash half matches; it takes no
// lock and writes only its hit or miss count, on one of statStripes
// padded stripes. Publish probes the same way first, since keys are
// often republished, and takes the mutex only to insert, doubling the
// slot array past ¾ load. A reader still on the old array may miss an
// entry made since and compute the fact itself, which the package
// contract makes harmless.
type Store[V any] struct {
	slots   atomic.Pointer[[]atomic.Uint64]
	chunks  atomic.Pointer[[]*[chunkSize]entry[V]]
	mu      sync.Mutex // serializes inserts and growth
	created atomic.Int64
	_       [64 - 4*8]byte // the stripes start on a cache line
	stats   [statStripes]statStripe
}

type entry[V any] struct {
	key config.Key128
	val V
}

// statStripe is one cache line of hit/miss counters: a Load counts on
// the stripe its key's hash selects, so workers probing different keys
// rarely write the same line.
type statStripe struct {
	hits, misses atomic.Int64
	_            [64 - 2*8]byte
}

const (
	chunkBits    = 9 // an arena chunk holds 1 << chunkBits entries
	chunkSize    = 1 << chunkBits
	initialSlots = 64 // a fresh store's slot count, a power of two
	statStripes  = 16
	indexBits    = 1<<32 - 1 // a slot's arena index + 1; the hash half sits above
)

// NewStore builds an empty store.
func NewStore[V any]() *Store[V] {
	s := &Store[V]{}
	slots := make([]atomic.Uint64, initialSlots)
	s.slots.Store(&slots)
	s.chunks.Store(new([]*[chunkSize]entry[V]))
	return s
}

// home is the slot a probe for hash h starts at among n slots: the
// hash's top bits, which a slot word keeps, so growth re-places words
// without reading the arena.
func home(h uint64, n int) int { return int(h >> (64 - bits.TrailingZeros(uint(n)))) }

// find probes slots for key, whose hash is h: its entry on a hit, or
// the index of the empty slot that ends the probe.
func (s *Store[V]) find(slots []atomic.Uint64, key config.Key128, h uint64) (*entry[V], int) {
	for i := home(h, len(slots)); ; i = (i + 1) & (len(slots) - 1) {
		w := slots[i].Load()
		if w == 0 {
			return nil, i
		}
		if w&^indexBits == h&^indexBits {
			idx := int(w&indexBits) - 1
			if e := &(*s.chunks.Load())[idx>>chunkBits][idx&(chunkSize-1)]; e.key == key {
				return e, i
			}
		}
	}
}

// Load returns the published value for a key, if any, and counts the
// lookup in the hit/miss statistics.
func (s *Store[V]) Load(key config.Key128) (V, bool) {
	h := key.Hash()
	e, _ := s.find(*s.slots.Load(), key, h)
	st := &s.stats[h%statStripes]
	if e == nil {
		st.misses.Add(1)
		var zero V
		return zero, false
	}
	st.hits.Add(1)
	return e.val, true
}

// Publish stores a final value, keeping any already-published one
// (first-write-wins — concurrent publishers hold equivalent values by
// the package contract) and counting each distinct key once.
func (s *Store[V]) Publish(key config.Key128, v V) {
	h := key.Hash()
	if e, _ := s.find(*s.slots.Load(), key, h); e != nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	slots := *s.slots.Load()
	e, i := s.find(slots, key, h)
	if e != nil {
		return
	}
	idx := int(s.created.Load())
	if 4*(idx+1) > 3*len(slots) {
		grown := make([]atomic.Uint64, 2*len(slots))
		for j := range slots {
			if w := slots[j].Load(); w != 0 {
				at := home(w, len(grown))
				for grown[at].Load() != 0 {
					at = (at + 1) & (len(grown) - 1)
				}
				grown[at].Store(w)
			}
		}
		s.slots.Store(&grown)
		slots = grown
		_, i = s.find(slots, key, h)
	}
	chunks := *s.chunks.Load()
	if idx>>chunkBits == len(chunks) {
		// append writes past the length every reader's header has.
		added := append(chunks, new([chunkSize]entry[V]))
		s.chunks.Store(&added)
		chunks = added
	}
	chunks[idx>>chunkBits][idx&(chunkSize-1)] = entry[V]{key: key, val: v}
	slots[i].Store(h&^indexBits | uint64(idx+1))
	s.created.Add(1)
}

// Created returns the number of distinct keys published so far.
func (s *Store[V]) Created() int64 { return s.created.Load() }

// Hits returns the number of Loads that found a published value.
func (s *Store[V]) Hits() int64 { return s.Stats().Hits }

// Misses returns the number of Loads that found nothing.
func (s *Store[V]) Misses() int64 { return s.Stats().Misses }

// Stats is a point-in-time snapshot of a store's counters — the one
// memo-statistics currency every consumer shares (sweep reports,
// worker wire summaries, CLI stderr tallies, /metrics gauges).
type Stats struct {
	Hits    int64 `json:"hits"`
	Misses  int64 `json:"misses"`
	Created int64 `json:"created"`
}

// Stats snapshots the store's cumulative counters, summing the
// hit/miss stripes. The loads are not atomic as a group; under
// concurrent traffic the snapshot is a consistent-enough diagnostic,
// not a transaction, and at rest it is exact.
func (s *Store[V]) Stats() Stats {
	st := Stats{Created: s.created.Load()}
	for i := range s.stats {
		st.Hits += s.stats[i].hits.Load()
		st.Misses += s.stats[i].misses.Load()
	}
	return st
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

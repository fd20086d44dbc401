package memo

import (
	"fmt"
	"sync"
	"testing"
	"unsafe"

	"repro/internal/config"
	"repro/internal/grid"
)

// keyOf is the exact key of a small pattern.
func keyOf(cs ...grid.Coord) config.Key128 {
	k, _ := config.New(cs...).Key128()
	return k
}

func TestStoreFirstWriteWinsAndCounters(t *testing.T) {
	s := NewStore[int]()
	k := keyOf(grid.Coord{Q: 0, R: 0}, grid.Coord{Q: 1, R: 0})
	if _, ok := s.Load(k); ok {
		t.Fatal("empty store hit")
	}
	s.Publish(k, 42)
	s.Publish(k, 7) // duplicate publication keeps the first value
	if v, ok := s.Load(k); !ok || v != 42 {
		t.Fatalf("Load = %d,%v; want 42,true", v, ok)
	}
	if s.Created() != 1 {
		t.Fatalf("Created = %d, want 1 (duplicates not counted)", s.Created())
	}
	if s.Hits() != 1 || s.Misses() != 1 {
		t.Fatalf("Hits/Misses = %d/%d, want 1/1", s.Hits(), s.Misses())
	}
}

// TestStoreHammer is the concurrency smoke test the -race runs lean
// on: many goroutines publishing and loading an overlapping key set.
// Every loaded value must be the key's unique fact — publish-once with
// first-write-wins means racing publishers (who by contract hold equal
// values) can never make a reader observe anything else.
func TestStoreHammer(t *testing.T) {
	s := NewStore[uint64]()
	const keys = 512
	ks := make([]config.Key128, keys)
	vals := make([]uint64, keys)
	for i := range ks {
		// Distinct two-robot patterns: anchor at origin, second node at
		// (1..15, i%16) — all within the exact envelope.
		c := grid.Coord{Q: 1 + i/16%15, R: i % 16}
		ks[i], _ = keyOf(grid.Coord{Q: 0, R: 0}, c).WithPhase(i / 240)
		vals[i] = uint64(i)*0x9e3779b9 + 1
	}
	// Phased variants of few patterns overlap heavily across workers.
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for round := 0; round < 200; round++ {
				for i := range ks {
					if (i+round+w)%3 == 0 {
						s.Publish(ks[i], vals[i])
					}
					if v, ok := s.Load(ks[i]); ok && v != vals[i] {
						panic(fmt.Sprintf("key %d: loaded %d, want %d", i, v, vals[i]))
					}
				}
			}
		}(w)
	}
	wg.Wait()
	// Keys may alias through WithPhase reuse above; created is bounded
	// by the distinct key count.
	distinct := map[config.Key128]bool{}
	for _, k := range ks {
		distinct[k] = true
	}
	if got := int(s.Created()); got != len(distinct) {
		t.Fatalf("Created = %d, want %d distinct keys", got, len(distinct))
	}
}

// TestStoreGrowsConcurrently fills one fresh store from several
// goroutines at once, over enough distinct keys that it doubles at
// least six times while readers probe it: every Load after a Publish
// must return the first-published value, every key must be created
// exactly once, and the striped counters must add up to the loads.
func TestStoreGrowsConcurrently(t *testing.T) {
	const workers, keys = 4, 64 * initialSlots
	ks := make([]config.Key128, keys)
	for i := range ks {
		// Distinct three-robot patterns of the exact envelope, each
		// under one of four phases.
		p, q := i/4%225, i/4/225
		k := keyOf(grid.Coord{Q: 0, R: 0}, grid.Coord{Q: 1 + p%15, R: p / 15}, grid.Coord{Q: 1 + q%15, R: -1 - q/15})
		ks[i], _ = k.WithPhase(i % 4)
	}
	s := NewStore[int]()
	seen := make([][]int, workers) // the value each worker loaded after publishing
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		seen[w] = make([]int, keys)
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			// Each worker starts a quarter of the way further in and
			// publishes its own value, so inserts, growth, republishes
			// and hits interleave across workers.
			for k := range ks {
				i := (k + w*keys/workers) % keys
				if _, ok := s.Load(ks[i]); !ok {
					s.Publish(ks[i], w)
				}
				v, ok := s.Load(ks[i])
				if !ok {
					t.Errorf("key %d: not found after Publish", i)
					return
				}
				seen[w][i] = v
			}
		}(w)
	}
	wg.Wait()
	if got := len(*s.slots.Load()); got < initialSlots<<6 {
		t.Fatalf("%d slots: fewer than six doublings of %d", got, initialSlots)
	}
	// First write wins: every load after a publish saw the value the
	// store holds at the end.
	for i, k := range ks {
		final, _ := s.Load(k)
		for w := range seen {
			if seen[w][i] != final {
				t.Fatalf("key %d: worker %d loaded %d, the store holds %d", i, w, seen[w][i], final)
			}
		}
	}
	distinct := map[config.Key128]bool{}
	for _, k := range ks {
		distinct[k] = true
	}
	st, loads := s.Stats(), int64(2*workers*keys+keys)
	if st.Created != int64(len(distinct)) || len(distinct) != keys {
		t.Fatalf("Created = %d, want %d distinct keys of %d", st.Created, len(distinct), keys)
	}
	if st.Lookups() != loads || st.Misses < st.Created {
		t.Fatalf("Hits + Misses = %d + %d, want %d loads with at least one miss per key", st.Hits, st.Misses, loads)
	}
}

// TestStoreStripeFillsCacheLine: each hit/miss counter stripe of a
// Store fills its own 64-byte line and the stripes start on a line
// boundary of the struct, so workers counting on different stripes do
// not share a line.
func TestStoreStripeFillsCacheLine(t *testing.T) {
	if size := unsafe.Sizeof(statStripe{}); size != 64 {
		t.Fatalf("stripe is %d bytes, want 64", size)
	}
	if off := unsafe.Offsetof(Store[Outcome]{}.stats); off%64 != 0 {
		t.Fatalf("stripes start at offset %d, not on a 64-byte line", off)
	}
}

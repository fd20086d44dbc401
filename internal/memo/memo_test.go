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

// TestStoreShardFillsCacheLine: each shard of a Store sits on its own
// 64-byte line, so read locks on different shards do not contend.
func TestStoreShardFillsCacheLine(t *testing.T) {
	if size := unsafe.Sizeof(shard[Outcome]{}); size != 64 {
		t.Fatalf("shard is %d bytes, want 64", size)
	}
	if size := unsafe.Sizeof(shard[uint64]{}); size != 64 {
		t.Fatalf("shard is %d bytes, want 64", size)
	}
}

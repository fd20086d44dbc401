package memo

import (
	"fmt"
	"sync"
	"testing"
	"unsafe"

	"repro/internal/config"
	"repro/internal/grid"
)

func nodes(cs ...grid.Coord) []grid.Coord { return config.New(cs...).Nodes() }

func TestKeyOfExactAndFallback(t *testing.T) {
	small := nodes(grid.Coord{Q: 0, R: 0}, grid.Coord{Q: 1, R: 0}, grid.Coord{Q: 1, R: 1})
	k := KeyOf(small)
	if !k.Exact {
		t.Fatalf("KeyOf(3 nodes) not exact: %+v", k)
	}
	want, ok := config.Key128Nodes(small)
	if !ok || k.K != want {
		t.Fatalf("KeyOf = %+v, want Key128 %+v", k, want)
	}

	// 15 nodes exceed the Key128 envelope: string fallback.
	var wide []grid.Coord
	for i := 0; i < 15; i++ {
		wide = append(wide, grid.Coord{Q: i, R: 0})
	}
	k = KeyOf(nodes(wide...))
	if k.Exact || k.S == "" {
		t.Fatalf("KeyOf(15 nodes) should fall back to string, got %+v", k)
	}
}

func TestWithPhase(t *testing.T) {
	base := KeyOf(nodes(grid.Coord{Q: 0, R: 0}, grid.Coord{Q: 1, R: 0}))
	if got := base.WithPhase(0); got != base {
		t.Fatalf("WithPhase(0) changed the key: %+v vs %+v", got, base)
	}
	seen := map[Key]int{base: 0}
	for ph := 1; ph <= MaxPhase; ph++ {
		k := base.WithPhase(ph)
		if !k.Exact {
			t.Fatalf("WithPhase(%d) lost exactness", ph)
		}
		if prev, dup := seen[k]; dup {
			t.Fatalf("WithPhase(%d) collides with phase %d", ph, prev)
		}
		seen[k] = ph
		// The phase must not disturb the pattern bits.
		if k.K.Lo != base.K.Lo {
			t.Fatalf("WithPhase(%d) altered Lo", ph)
		}
	}
	// Past MaxPhase the key degrades to a still-unique string.
	a, b := base.WithPhase(MaxPhase+1), base.WithPhase(MaxPhase+2)
	if a.Exact || b.Exact || a == b || a == base.WithPhase(1) {
		t.Fatalf("overflow phases not unique strings: %+v / %+v", a, b)
	}
}

// TestWithPhaseDisjointAcrossPatterns checks the structural claim the
// folding relies on: a phased key of one pattern can never equal any
// phase of another pattern's key, because the pattern bits stay intact.
func TestWithPhaseDisjointAcrossPatterns(t *testing.T) {
	a := KeyOf(nodes(grid.Coord{Q: 0, R: 0}, grid.Coord{Q: 1, R: 0}))
	b := KeyOf(nodes(grid.Coord{Q: 0, R: 0}, grid.Coord{Q: 1, R: 1}))
	for pa := 0; pa <= 8; pa++ {
		for pb := 0; pb <= 8; pb++ {
			if a.WithPhase(pa) == b.WithPhase(pb) {
				t.Fatalf("phase fold collides: pattern a phase %d == pattern b phase %d", pa, pb)
			}
		}
	}
}

func TestStoreFirstWriteWinsAndCounters(t *testing.T) {
	s := NewStore[int]()
	k := KeyOf(nodes(grid.Coord{Q: 0, R: 0}, grid.Coord{Q: 1, R: 0}))
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

	// String-fallback keys go through the slow map with the same
	// semantics.
	sk := Key{S: "wide-pattern"}
	s.Publish(sk, 9)
	s.Publish(sk, 10)
	if v, ok := s.Load(sk); !ok || v != 9 {
		t.Fatalf("slow Load = %d,%v; want 9,true", v, ok)
	}
	if s.Created() != 2 {
		t.Fatalf("Created = %d, want 2", s.Created())
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
	ks := make([]Key, keys)
	vals := make([]uint64, keys)
	for i := range ks {
		// Distinct two-robot patterns: anchor at origin, second node at
		// (1..15, i%16) — all within the exact envelope.
		c := grid.Coord{Q: 1 + i/16%15, R: i % 16}
		ks[i] = KeyOf(nodes(grid.Coord{Q: 0, R: 0}, c)).WithPhase(i / 240 % MaxPhase)
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
	distinct := map[Key]bool{}
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

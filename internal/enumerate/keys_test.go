package enumerate

import (
	"math/rand"
	"testing"

	"repro/internal/config"
	"repro/internal/grid"
	"repro/internal/oracle"
)

// TestKeyNativeMatchesLegacy is the source-order contract of the
// key-native engine: for every size the paper's workloads sweep, the
// key-native path must reproduce the string-keyed reference
// enumeration (internal/oracle) byte-identically — same patterns, same
// canonical order — at every worker count. "key/v1" order and config.Compare order are the
// same order; this is the test that pins it.
func TestKeyNativeMatchesLegacy(t *testing.T) {
	top := 8
	if testing.Short() {
		top = 7
	}
	for n := 0; n <= top; n++ {
		want := oracle.Connected(n)
		for _, workers := range []int{1, 4, 8} {
			got, _ := ConnectedStats(n, workers)
			if len(got) != len(want) {
				t.Fatalf("n=%d workers=%d: %d patterns, reference %d", n, workers, len(got), len(want))
			}
			for i := range got {
				if got[i].Compare(want[i]) != 0 {
					t.Fatalf("n=%d workers=%d: pattern %d differs: %s vs %s",
						n, workers, i, got[i].Key(), want[i].Key())
				}
			}
		}
		if got := Connected(n); len(got) != len(want) {
			t.Fatalf("n=%d: Connected returned %d patterns, reference %d", n, len(got), len(want))
		}
	}
}

// TestKeysSortedCanonically pins the key list itself: ascending
// "key/v1" order with no duplicates, decoding index-by-index to the
// reference output.
func TestKeysSortedCanonically(t *testing.T) {
	for n := 1; n <= 7; n++ {
		keys := Keys(n)
		want := oracle.Connected(n)
		if len(keys) != len(want) {
			t.Fatalf("n=%d: %d keys, want %d", n, len(keys), len(want))
		}
		for i, k := range keys {
			if i > 0 && cmpKey128(keys[i-1], k) >= 0 {
				t.Fatalf("n=%d: keys out of order at %d", n, i)
			}
			c, err := config.FromKey128(k)
			if err != nil {
				t.Fatalf("n=%d key %d: %v", n, i, err)
			}
			if c.Compare(want[i]) != 0 {
				t.Fatalf("n=%d: key %d decodes to %s, reference has %s", n, i, c.Key(), want[i].Key())
			}
		}
	}
}

// TestFromKeyRoundTripExhaustive is the decoders' exhaustive property
// test: FromKey64 ∘ Key64Nodes and FromKey128 ∘ Key128Nodes are the
// identity over every connected pattern n ≤ 8 (FromKey64 over the
// n ≤ 7 part of the space, its whole exact envelope).
func TestFromKeyRoundTripExhaustive(t *testing.T) {
	top := 8
	if testing.Short() {
		top = 7
	}
	for n := 1; n <= top; n++ {
		for _, c := range oracle.Connected(n) {
			k128, ok := c.Key128()
			if !ok {
				t.Fatalf("n=%d: pattern %s not Key128-exact", n, c.Key())
			}
			back, err := config.FromKey128(k128)
			if err != nil {
				t.Fatalf("n=%d: FromKey128: %v", n, err)
			}
			if back.Compare(c) != 0 {
				t.Fatalf("n=%d: Key128 round trip %s -> %s", n, c.Key(), back.Key())
			}
			if k64, ok := c.Key64(); ok {
				back, err := config.FromKey64(k64)
				if err != nil {
					t.Fatalf("n=%d: FromKey64: %v", n, err)
				}
				if back.Compare(c) != 0 {
					t.Fatalf("n=%d: Key64 round trip %s -> %s", n, c.Key(), back.Key())
				}
			} else if n <= 7 {
				t.Fatalf("n=%d: pattern %s not Key64-exact", n, c.Key())
			}
		}
	}
}

// TestChildKeyMatchesRekeying checks the fused hot path against the
// two-step reference: keying parent ∪ {v} via childKey equals
// mergeInsert + Key128Nodes for random parents and every admissible
// extension.
func TestChildKeyMatchesRekeying(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	var scr growScratch
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(9)
		patterns := Connected(n)
		base := patterns[rng.Intn(len(patterns))].Nodes()
		for _, v := range base {
			for _, nb := range v.Neighbors() {
				if containsSorted(base, nb) {
					continue
				}
				scr.merged = mergeInsert(scr.merged[:0], base, nb)
				want, ok := config.Key128Nodes(scr.merged)
				if !ok {
					t.Fatal("reference keying fell out of the envelope")
				}
				if got := childKey(base, nb); got != want {
					t.Fatalf("childKey(%v, %v) = %#x:%#x, want %#x:%#x",
						base, nb, got.Hi, got.Lo, want.Hi, want.Lo)
				}
			}
		}
	}
}

func TestContainsSortedAgrees(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 500; trial++ {
		c := Connected(1 + rng.Intn(8))
		nodes := c[rng.Intn(len(c))].Nodes()
		v := grid.Coord{Q: rng.Intn(9) - 4, R: rng.Intn(9) - 4}
		if containsSorted(nodes, v) != containsCoord(nodes, v) {
			t.Fatalf("containsSorted disagrees on %v in %v", v, nodes)
		}
	}
}

// TestEachStreamsConnected: Each is the FSYNC analogue of EachWithin —
// canonical order, count contract, nil visit, early stop.
func TestEachStreamsConnected(t *testing.T) {
	want := Connected(7)
	i := 0
	total := Each(7, func(c config.Config) bool {
		if c.Compare(want[i]) != 0 {
			t.Fatalf("pattern %d: %s, want %s", i, c.Key(), want[i].Key())
		}
		i++
		return true
	})
	if i != len(want) || total != len(want) {
		t.Fatalf("visited %d, returned %d, want %d", i, total, len(want))
	}
	if got := Each(7, nil); got != len(want) {
		t.Fatalf("nil-visit count %d, want %d", got, len(want))
	}
	seen := 0
	Each(7, func(config.Config) bool { seen++; return seen < 10 })
	if seen != 10 {
		t.Fatalf("early stop visited %d, want 10", seen)
	}
}

// TestKeysStats pins the observability the daemons surface: final size,
// peak frontier, the distinct-pattern total across generations, and a
// dedup hit rate strictly inside (0, 1).
func TestKeysStats(t *testing.T) {
	keys, stats := KeysStats(7, 1)
	if stats.Patterns != len(keys) || stats.Patterns != KnownCounts[7] {
		t.Fatalf("stats.Patterns = %d, keys %d, want %d", stats.Patterns, len(keys), KnownCounts[7])
	}
	wantUnique := int64(0)
	for n := 1; n <= 7; n++ {
		wantUnique += int64(KnownCounts[n])
	}
	if stats.Unique != wantUnique {
		t.Fatalf("stats.Unique = %d, want %d", stats.Unique, wantUnique)
	}
	if stats.PeakFrontier != KnownCounts[7] {
		t.Fatalf("stats.PeakFrontier = %d, want %d", stats.PeakFrontier, KnownCounts[7])
	}
	if r := stats.DedupHitRate(); r <= 0 || r >= 1 {
		t.Fatalf("dedup hit rate %f outside (0,1)", r)
	}
	if stats.Candidates <= stats.Unique {
		t.Fatalf("candidates %d not above unique %d", stats.Candidates, stats.Unique)
	}
	// The run's key list must not depend on stats being collected.
	if _, stats4 := KeysStats(7, 4); stats4.Candidates != stats.Candidates || stats4.Unique != stats.Unique {
		t.Fatalf("worker count changed the enumeration's shape: %+v vs %+v", stats4, stats)
	}
}

// TestNegativeSizePanics pins the one shared guard: every entry point
// rejects a negative size, and a size past MaxKeyN, the same way.
func TestNegativeSizePanics(t *testing.T) {
	calls := map[string]func(n int){
		"Connected":      func(n int) { Connected(n) },
		"ConnectedStats": func(n int) { ConnectedStats(n, 2) },
		"Count":          func(n int) { Count(n) },
		"Keys":           func(n int) { Keys(n) },
		"KeysStats":      func(n int) { KeysStats(n, 2) },
		"Each":           func(n int) { Each(n, nil) },
	}
	for _, tc := range []struct {
		n    int
		want string
	}{
		{-1, "enumerate: negative size"},
		{MaxKeyN + 1, "enumerate: size past the exact key envelope"},
	} {
		for name, call := range calls {
			func() {
				defer func() {
					if r := recover(); r != tc.want {
						t.Errorf("%s(%d) panicked with %v, want %q", name, tc.n, r, tc.want)
					}
				}()
				call(tc.n)
			}()
		}
	}
}

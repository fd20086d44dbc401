package enumerate

import (
	"testing"

	"repro/internal/config"
	"repro/internal/oracle"
)

// TestKeyNativeMatchesLegacy is the source-order contract of the
// enumeration: for every size the paper's workloads sweep, the search
// must reproduce the string-keyed reference enumeration
// (internal/oracle) byte-identically — same patterns, same canonical
// order — at every worker count, through sizes below, at and above
// splitDepth, where the parallel search deals its subtrees out.
// "key/v1" order and config.Compare order are the same order; this is
// the test that pins it.
func TestKeyNativeMatchesLegacy(t *testing.T) {
	top := 8
	if testing.Short() {
		top = 7
	}
	for n := 0; n <= top; n++ {
		want := oracle.Connected(n, 1)
		for _, workers := range []int{1, 2, 3, 4, 8} {
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
		keys, _ := KeysStats(n, 1)
		want := oracle.Connected(n, 1)
		if len(keys) != len(want) {
			t.Fatalf("n=%d: %d keys, want %d", n, len(keys), len(want))
		}
		for i, k := range keys {
			if i > 0 && keys[i-1].Compare(k) >= 0 {
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

// TestFromKeyRoundTripExhaustive is the decoder's exhaustive property
// test: FromKey128 ∘ Key128Nodes is the identity over every connected
// pattern n ≤ 8.
func TestFromKeyRoundTripExhaustive(t *testing.T) {
	top := 8
	if testing.Short() {
		top = 7
	}
	for n := 1; n <= top; n++ {
		for _, c := range oracle.Connected(n, 1) {
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
		}
	}
}

// TestEachStreamsConnected: EachWithin at radius 1 streams the
// Connected patterns — each once, normalized, on a node slice of its
// own — and keeps the count contract, the nil-visit count and the
// early stop.
func TestEachStreamsConnected(t *testing.T) {
	want := map[config.Key128]bool{}
	for _, c := range Connected(7) {
		k, _ := c.Key128()
		want[k] = true
	}
	seen := map[config.Key128]config.Config{}
	total := EachWithin(7, 1, func(c config.Config) bool {
		k, ok := c.Key128()
		if !ok || !want[k] {
			t.Fatalf("pattern %s is not a connected 7-node pattern", c.Key())
		}
		if _, dup := seen[k]; dup {
			t.Fatalf("pattern %s streamed twice", c.Key())
		}
		seen[k] = c
		return true
	})
	if len(seen) != len(want) || total != len(want) {
		t.Fatalf("visited %d, returned %d, want %d", len(seen), total, len(want))
	}
	for k, c := range seen { // the retained configurations are intact
		if got, _ := c.Key128(); got != k {
			t.Fatalf("retained pattern %s was overwritten", c.Key())
		}
	}
	if got := EachWithin(7, 1, nil); got != len(want) {
		t.Fatalf("nil-visit count %d, want %d", got, len(want))
	}
	stopped := 0
	if got := EachWithin(7, 1, func(config.Config) bool { stopped++; return stopped < 10 }); got != 10 || stopped != 10 {
		t.Fatalf("early stop visited %d and returned %d, want 10", stopped, got)
	}
}

// TestKeysStats pins the observability the daemons surface: final
// size, the largest size class, the distinct-pattern total across
// sizes, and no duplicate candidates — identical at every worker
// count.
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
	if stats.Candidates != stats.Unique-1 {
		t.Fatalf("candidates %d, want unique − 1 = %d", stats.Candidates, stats.Unique-1)
	}
	if r := stats.DedupHitRate(); r != 0 {
		t.Fatalf("dedup hit rate %f, want 0", r)
	}
	for _, n := range []int{5, 7, 9} {
		_, base := KeysStats(n, 1)
		for _, workers := range []int{2, 3, 4, 8} {
			_, got := KeysStats(n, workers)
			got.DurationUS = base.DurationUS
			if got != base {
				t.Fatalf("n=%d workers=%d: stats %+v, serial %+v", n, workers, got, base)
			}
		}
	}
}

// TestKeysCountsPinned pins the size-n key count to KnownCounts
// through n = 11 on one worker and on four, where the subtrees are
// dealt out.
func TestKeysCountsPinned(t *testing.T) {
	top := 11
	if testing.Short() {
		top = 9
	}
	for n := 1; n <= top; n++ {
		for _, workers := range []int{1, 4} {
			if keys, _ := KeysStats(n, workers); len(keys) != KnownCounts[n] {
				t.Errorf("n=%d workers=%d: %d keys, want %d", n, workers, len(keys), KnownCounts[n])
			}
		}
	}
}

// TestNegativeSizePanics pins the one shared guard: every entry point
// rejects a negative size, and a size past MaxKeyN, the same way, and
// EachWithin a radius outside [1, MaxVisRange].
func TestNegativeSizePanics(t *testing.T) {
	calls := map[string]func(n int){
		"Connected":      func(n int) { Connected(n) },
		"ConnectedStats": func(n int) { ConnectedStats(n, 2) },
		"Count":          func(n int) { Count(n) },
		"KeysStats":      func(n int) { KeysStats(n, 2) },
		"EachWithin":     func(n int) { EachWithin(n, 2, nil) },
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
	for _, r := range []int{0, MaxVisRange + 1, 1000000} {
		func() {
			defer func() {
				if got := recover(); got != "enumerate: connectivity range outside [1, MaxVisRange]" {
					t.Errorf("EachWithin(3, %d) panicked with %v", r, got)
				}
			}()
			EachWithin(3, r, nil)
		}()
	}
}

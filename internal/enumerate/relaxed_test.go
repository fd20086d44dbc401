package enumerate

import (
	"math/rand"
	"testing"

	"repro/internal/config"
	"repro/internal/grid"
	"repro/internal/oracle"
)

// within collects the within(n, visRange) stream, failing on a
// duplicate or a pattern that is not normalized.
func within(t testing.TB, n, visRange int) map[string]config.Config {
	t.Helper()
	out := map[string]config.Config{}
	EachWithin(n, visRange, func(c config.Config) bool {
		k := c.Key()
		if _, dup := out[k]; dup {
			t.Fatalf("within(%d, %d): duplicate pattern %s", n, visRange, k)
		}
		if !c.Equal(c.Normalize()) {
			t.Fatalf("within(%d, %d): non-normalized pattern %s", n, visRange, k)
		}
		out[k] = c
		return true
	})
	return out
}

// TestConnectedWithin1MatchesConnected: at radius 1 the relaxed space
// is the connected space, pattern for pattern.
func TestConnectedWithin1MatchesConnected(t *testing.T) {
	for n := 1; n <= 7; n++ {
		want := Connected(n)
		got := within(t, n, 1)
		if len(got) != len(want) {
			t.Fatalf("n=%d: within(n, 1) gave %d patterns, Connected gave %d", n, len(got), len(want))
		}
		for _, c := range want {
			if _, ok := got[c.Key()]; !ok {
				t.Fatalf("n=%d: within(n, 1) lacks %s", n, c.Key())
			}
		}
	}
}

// TestConnectedWithin2Counts pins the range-2 space through the n = 7
// space E16 sweeps, on the counting search and on the stream.
func TestConnectedWithin2Counts(t *testing.T) {
	want := []int{1: 1, 2: 9, 3: 99, 4: 1194, 5: 15198, 6: 200376, 7: 2708148}
	for n := 1; n < len(want); n++ {
		if got := EachWithin(n, 2, nil); got != want[n] {
			t.Errorf("within(%d, 2): counted %d patterns, want %d", n, got, want[n])
		}
		if n == 7 && testing.Short() {
			continue
		}
		if got := EachWithin(n, 2, func(config.Config) bool { return true }); got != want[n] {
			t.Errorf("within(%d, 2): streamed %d patterns, want %d", n, got, want[n])
		}
	}
}

// TestConnectedWithin3Counts pins the range-3 space through n = 5, the
// largest space at MaxVisRange any experiment uses.
func TestConnectedWithin3Counts(t *testing.T) {
	for n, want := range map[int]int{3: 396, 4: 9558, 5: 243474} {
		if got := EachWithin(n, 3, nil); got != want {
			t.Errorf("within(%d, 3): counted %d patterns, want %d", n, got, want)
		}
		if got := EachWithin(n, 3, func(config.Config) bool { return true }); got != want {
			t.Errorf("within(%d, 3): streamed %d patterns, want %d", n, got, want)
		}
	}
}

func TestConnectedWithin2Properties(t *testing.T) {
	for _, c := range within(t, 4, 2) {
		if !VisibilityConnected(c, 2) {
			t.Fatalf("relaxed enumeration yielded vis-disconnected %v", c)
		}
		if c.Len() != 4 {
			t.Fatalf("wrong size: %v", c)
		}
	}
}

func TestConnectedWithin2StrictlyLarger(t *testing.T) {
	// The relaxed space strictly contains the adjacency-connected space.
	adj := map[string]bool{}
	for _, c := range Connected(3) {
		adj[c.Key()] = true
	}
	relaxed := within(t, 3, 2)
	super := 0
	for _, c := range relaxed {
		if !adj[c.Key()] {
			super++
			if c.Connected() {
				t.Fatalf("non-adjacency pattern reported connected: %v", c)
			}
		}
	}
	if super != len(relaxed)-len(adj) {
		t.Fatalf("containment broken: %d extra, want %d", super, len(relaxed)-len(adj))
	}
	if super == 0 {
		t.Fatal("relaxed space not strictly larger")
	}
}

func TestVisibilityConnected(t *testing.T) {
	// Two robots at distance 2: vis-2 connected, adjacency disconnected.
	c := config.New(grid.Origin, grid.Coord{Q: 2, R: 0})
	if c.Connected() {
		t.Fatal("distance-2 pair reported adjacency-connected")
	}
	if !VisibilityConnected(c, 2) {
		t.Fatal("distance-2 pair not vis-2 connected")
	}
	if VisibilityConnected(c, 1) {
		t.Fatal("distance-2 pair vis-1 connected")
	}
	far := config.New(grid.Origin, grid.Coord{Q: 5, R: 0})
	if VisibilityConnected(far, 2) {
		t.Fatal("distance-5 pair vis-2 connected")
	}
}

func TestRandomWithinProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 200; trial++ {
		c := RandomWithin(7, 2, rng)
		if c.Len() != 7 {
			t.Fatalf("sample has %d robots", c.Len())
		}
		if !VisibilityConnected(c, 2) {
			t.Fatalf("sample not vis-2 connected: %v", c)
		}
	}
}

func TestRandomWithinDeterministicPerSeed(t *testing.T) {
	a := RandomWithin(7, 2, rand.New(rand.NewSource(5)))
	b := RandomWithin(7, 2, rand.New(rand.NewSource(5)))
	if !a.Equal(b) {
		t.Fatal("same seed produced different samples")
	}
}

// TestEachWithinMatchesOracle is the differential test of the relaxed
// spaces: the stream yields exactly the string-keyed reference's
// pattern set — no duplicates, every pattern normalized — and the
// counting search agrees; early stop works.
func TestEachWithinMatchesOracle(t *testing.T) {
	for _, tc := range []struct{ n, r int }{{1, 2}, {2, 2}, {3, 2}, {4, 2}, {5, 2}, {1, 3}, {2, 3}, {3, 3}, {4, 3}} {
		want := oracle.Connected(tc.n, tc.r)
		got := within(t, tc.n, tc.r)
		if len(got) != len(want) {
			t.Fatalf("n=%d r=%d: streamed %d patterns, reference %d", tc.n, tc.r, len(got), len(want))
		}
		for _, c := range want {
			if _, ok := got[c.Key()]; !ok {
				t.Fatalf("n=%d r=%d: stream lacks %s", tc.n, tc.r, c.Key())
			}
		}
		if n := EachWithin(tc.n, tc.r, nil); n != len(want) {
			t.Fatalf("n=%d r=%d: counting pass gave %d, want %d", tc.n, tc.r, n, len(want))
		}
	}
	stopped := 0
	EachWithin(5, 2, func(config.Config) bool {
		stopped++
		return stopped < 10
	})
	if stopped != 10 {
		t.Fatalf("early stop visited %d patterns, want 10", stopped)
	}
}

func BenchmarkEnumerateRelaxed5(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if EachWithin(5, 2, func(config.Config) bool { return true }) != 15198 {
			b.Fatal("bad count")
		}
	}
}

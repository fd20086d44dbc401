package core

import (
	"sync"
	"testing"

	"repro/internal/config"
	"repro/internal/enumerate"
	"repro/internal/grid"
	"repro/internal/vision"
)

func TestMemoizeMatchesCompute(t *testing.T) {
	memo := NewMemo()
	wrapped := Memoize(GreedyEast{}, memo)
	if wrapped.Name() != (GreedyEast{}).Name() || wrapped.VisibilityRange() != 2 {
		t.Fatal("Memoize changed identity")
	}
	c := config.Line(grid.Origin, grid.E, 7)
	for _, pos := range c.Nodes() {
		v := vision.Look(c, pos, 2)
		pv, _ := v.Pack()
		want := wrapped.Compute(v)
		if got := wrapped.ComputePacked(pv); got != want {
			t.Fatalf("first lookup: %v, want %v", got, want)
		}
		if got := wrapped.ComputePacked(pv); got != want { // cached hit
			t.Fatalf("cached lookup: %v, want %v", got, want)
		}
	}
	if memo.Len() == 0 {
		t.Fatal("memo table stayed empty")
	}
}

// TestMemoConcurrent hammers one warm table from many goroutines; run
// with -race this doubles as the data-race check for the lock-free
// read path.
func TestMemoConcurrent(t *testing.T) {
	memo := NewMemo()
	alg := Memoize(Gatherer{}, memo)
	views := make([]vision.PackedView, 0, 64)
	for _, c := range []config.Config{
		config.Line(grid.Origin, grid.E, 7),
		config.Line(grid.Origin, grid.NE, 7),
		config.Hexagon(grid.Origin),
	} {
		for _, pos := range c.Nodes() {
			pv, _ := vision.Look(c, pos, 2).Pack()
			views = append(views, pv)
		}
	}
	want := make([]Move, len(views))
	for i, pv := range views {
		want[i] = (Gatherer{}).Compute(pv.Unpack())
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for rep := 0; rep < 200; rep++ {
				for i, pv := range views {
					if got := alg.ComputePacked(pv); got != want[i] {
						t.Errorf("view %d: %v, want %v", i, got, want[i])
						return
					}
				}
			}
		}()
	}
	wg.Wait()
}

func TestGathererCustomTableBypassesMemo(t *testing.T) {
	// A Gatherer carrying a synthesizer table must not leak decisions
	// into (or read stale ones from) any memo: two different tables for
	// the same view must decide differently.
	c := config.Line(grid.Origin, grid.E, 7)
	pos := c.Nodes()[0] // western end: the full algorithm moves it
	v := vision.Look(c, pos, 2)
	pv, _ := v.Pack()
	key := v.Key()
	// NE from the western end is connectivity-safe (the destination stays
	// adjacent to the robot at (1,0)), so the override survives the guard.
	a := Gatherer{Table: map[string]Move{key: Stay}}
	b := Gatherer{Table: map[string]Move{key: MoveIn(grid.NE)}}
	if got := a.ComputePacked(pv); got != Stay {
		t.Fatalf("table A: %v, want stay", got)
	}
	if got := b.ComputePacked(pv); got != MoveIn(grid.NE) {
		t.Fatalf("table B: %v, want NE", got)
	}
}

// TestSharedMemoSegregatesAlgorithms is the reason Memo keys tables by
// algorithm name: one cache handed to two algorithms (the recommended
// ablation-series usage) must never serve one algorithm's cached move
// to the other for the same view.
func TestSharedMemoSegregatesAlgorithms(t *testing.T) {
	memo := NewMemo()
	greedy := Memoize(GreedyEast{}, memo)
	idle := Memoize(Idle{}, memo)
	c := config.Line(grid.Origin, grid.NE, 7)
	pos := c.Nodes()[0] // south end of a NE line: greedy steps E, idle never moves
	pv, _ := vision.Look(c, pos, 2).Pack()
	if got := greedy.ComputePacked(pv); !got.IsMove() {
		t.Fatalf("greedy-east stayed at the south end of a NE line: %v", got)
	}
	if got := idle.ComputePacked(pv); got != Stay {
		t.Fatalf("idle served greedy's cached decision from the shared memo: %v", got)
	}
	full := Memoize(Gatherer{}, memo)
	paper := Memoize(Gatherer{Variant: VariantPaper}, memo)
	for _, p := range c.Nodes() {
		v, _ := vision.Look(c, p, 2).Pack()
		_ = full.ComputePacked(v) // warm the cache with the full variant first
		if got, want := paper.ComputePacked(v), (Gatherer{Variant: VariantPaper}).Compute(v.Unpack()); got != want {
			t.Fatalf("paper variant served a wrong cached move: %v, want %v", got, want)
		}
	}
}

// TestGathererWarmHitAllocs: a warm Gatherer decision is a table probe
// with no allocation — the unwrapped Gatherer is what the adversary
// solver and every run without a shared cache decide through.
func TestGathererWarmHitAllocs(t *testing.T) {
	c := config.Line(grid.Origin, grid.E, 7)
	var pvs []vision.PackedView
	for _, pos := range c.Nodes() {
		pv, _ := vision.Look(c, pos, 2).Pack()
		pvs = append(pvs, pv)
	}
	g := Gatherer{}
	for _, pv := range pvs {
		g.ComputePacked(pv) // warm the process-wide table
	}
	allocs := testing.AllocsPerRun(100, func() {
		for _, pv := range pvs {
			g.ComputePacked(pv)
		}
	})
	if allocs != 0 {
		t.Fatalf("warm Gatherer.ComputePacked allocates %.1f per %d Looks, want 0", allocs, len(pvs))
	}
}

// distinctViews returns every distinct range-2 packed view of the
// connected n-robot patterns, in first-seen order.
func distinctViews(n int) []vision.PackedView {
	seen := map[uint64]bool{}
	var views []vision.PackedView
	for _, c := range enumerate.Connected(n) {
		nodes := c.Nodes()
		for _, pos := range nodes {
			pv, _ := vision.LookPackedSorted(nodes, pos, 2)
			if !seen[pv.Key64()] {
				seen[pv.Key64()] = true
				views = append(views, pv)
			}
		}
	}
	return views
}

// TestMemoTableGrowsConcurrently fills one fresh table from several
// goroutines at once, over enough distinct views that it doubles
// several times while readers probe it: every answer must be the
// algorithm's own decision, and every view must be stored exactly
// once.
func TestMemoTableGrowsConcurrently(t *testing.T) {
	views := distinctViews(6)
	if len(views) < 8*memoInitialSlots {
		t.Fatalf("%d distinct views cannot force three doublings of %d slots", len(views), memoInitialSlots)
	}
	want := make([]Move, len(views))
	for i, pv := range views {
		want[i] = (Gatherer{}).Compute(pv.Unpack())
	}
	memo := NewMemo()
	alg := Memoize(Gatherer{}, memo)
	const workers = 4
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			// Each worker starts a quarter of the way further in, so
			// inserts, growth and hits interleave across workers.
			for rep := 0; rep < 2; rep++ {
				for k := range views {
					i := (k + w*len(views)/workers) % len(views)
					if got := alg.ComputePacked(views[i]); got != want[i] {
						t.Errorf("view %v: %v, want %v", views[i], got, want[i])
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	if got := memo.Len(); got != len(views) {
		t.Fatalf("Memo.Len = %d, want %d distinct views", got, len(views))
	}
}

// TestKey64LeavesMoveBitsFree: a table slot folds the move into bits
// Key64 never sets, so a view with every disk node occupied, at every
// packable range, must leave them clear.
func TestKey64LeavesMoveBitsFree(t *testing.T) {
	for r := 0; r <= vision.MaxPackedRange; r++ {
		disk := config.New(grid.Origin.Disk(r)...)
		pv, ok := vision.Look(disk, grid.Origin, r).Pack()
		if !ok || pv.Key64() == 0 || pv.Key64()&moveBits != 0 {
			t.Fatalf("range %d: Key64 %#x overlaps the move bits %#x", r, pv.Key64(), moveBits)
		}
	}
}

// BenchmarkMemoizedHit measures the warm view→move probe that every
// Look of a memoized run makes, from all GOMAXPROCS goroutines at once
// over the distinct views of the n = 7 patterns.
func BenchmarkMemoizedHit(b *testing.B) {
	views := distinctViews(7)
	alg := Memoize(Gatherer{}, NewMemo())
	for _, pv := range views {
		alg.ComputePacked(pv)
	}
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			alg.ComputePacked(views[i])
			if i++; i == len(views) {
				i = 0
			}
		}
	})
}

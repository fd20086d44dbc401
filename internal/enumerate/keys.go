package enumerate

import (
	"runtime"
	"slices"
	"sync"
	"time"

	"repro/internal/config"
	"repro/internal/grid"
)

// This file is the enumeration engine: Redelmeier's algorithm (D. H.
// Redelmeier, "Counting polyominoes: yet another attack", Discrete
// Math. 36, 1981) on the triangular grid, where two nodes are
// neighbors when they lie within the connectivity radius R of each
// other. At R = 1 that is node adjacency, which is hexagonal cell
// adjacency, and the search yields the fixed polyhexes; at R > 1 it
// yields the range-R visibility-connected patterns. Every pattern comes
// out exactly once, so no dedup set is kept: a pattern is anchored at
// its (Q, R)-smallest node, the origin, and a node may join only if
// Q > 0, or Q = 0 and R ≥ 0, so every pattern comes out normalized. A
// size-n connected pattern is keyed from its sorted nodes with
// config.Key128Nodes, and a configuration is rebuilt from its key
// (config.FromKey128) only when a caller visits it. The canonical
// output order is ascending key order — order "key/v1" in
// sweep.SpecDesc terms — which coincides exactly with the
// config.Compare order: for same-n normalized patterns the key is the
// fixed-width concatenation of the node deltas in node order, so
// integer comparison of keys IS lexicographic comparison of node
// lists. Each search worker sorts the keys it found, and the sorted
// runs merge in parallel into canonical order.

// MaxKeyN is the largest robot count the enumeration covers: every
// connected pattern through config.MaxKeyNodes nodes is exactly
// Key128-encodable (spread ≤ n−1). Every entry point refuses larger
// sizes (checkSize): they are far past any tractable enumeration.
const MaxKeyN = config.MaxKeyNodes

// MaxVisRange is the largest connectivity radius the enumeration
// covers, the largest any experiment sweeps: within(5, 3) already holds
// 243,474 patterns. Every entry point refuses larger radii (checkSize),
// whose cell grid and pattern counts grow past any tractable sweep.
const MaxVisRange = 3

// Stats describes one enumeration run — the observability the sweep
// daemons surface (patterns/sec, dedup hit rate, peak frontier size).
// The search holds no frontier and no dedup set; the fields keep the
// meaning they had for the generation-by-generation growth it
// replaced, so consumers read the same currency.
type Stats struct {
	// Patterns is the number of size-n patterns.
	Patterns int
	// Unique is the number of distinct patterns of every size 1..n the
	// search visited, each exactly once.
	Unique int64
	// Candidates is the number of extensions the search produced:
	// every visited pattern but the one-node root, each produced once,
	// so Candidates = Unique − 1 and none was a duplicate.
	Candidates int64
	// PeakFrontier is the largest size class, the size-n one.
	PeakFrontier int
	// DurationUS is the wall time of the enumeration in microseconds.
	DurationUS int64
}

// DedupHitRate is the fraction of candidate extensions that were
// already-seen patterns: 0, since the search produces none.
func (Stats) DedupHitRate() float64 { return 0 }

// PatternsPerSec is the final-generation throughput of the run.
func (s Stats) PatternsPerSec() float64 {
	if s.DurationUS == 0 {
		return 0
	}
	return float64(s.Patterns) / (float64(s.DurationUS) / 1e6)
}

// KeysStats returns the canonical key list of every connected n-node
// pattern up to translation — ascending config.Key128 order ("key/v1"),
// which equals the config.Compare order Connected emits — and the
// run's Stats. The search fans out over workers goroutines (≤ 0 =
// GOMAXPROCS); the key list and the Stats are identical, and the keys
// identically ordered, at every worker count. n must be at most
// MaxKeyN.
func KeysStats(n, workers int) ([]config.Key128, Stats) {
	checkSize(n, 1)
	if n == 0 {
		return nil, Stats{}
	}
	workers = normWorkers(workers)
	start := time.Now()
	keys, stats := search(n, 1, workers, true)
	stats.DurationUS = time.Since(start).Microseconds()
	return keys, stats
}

// splitDepth is the pattern size at which a parallel search deals
// subtrees out: every worker walks the patterns smaller than this, and
// the k-th size-splitDepth pattern in search order (of KnownCounts[6]
// = 814) roots a subtree that belongs to worker k mod W. Enumerations
// no larger than this run on one worker.
const splitDepth = 6

// search runs Redelmeier's algorithm for size n and radius visRange on
// workers goroutines and returns the size-n keys in ascending order
// (none when keep is false) and the run's Stats without its duration.
// Each worker sorts its own keys; the sorted runs then merge. Only the
// connected space (visRange = 1) is keyed.
func search(n, visRange, workers int, keep bool) ([]config.Key128, Stats) {
	if n <= splitDepth {
		workers = 1
	}
	ss := make([]*searcher, workers)
	for w := range ss {
		ss[w] = newSearcher(n, visRange, w, workers, keep)
		if keep && n < len(KnownCounts) {
			// A worker's share, with slack for the uneven deal when
			// there are several: the largest share runs up to 8% over
			// the mean at eight workers (n = 7..11), under 0.5% at two.
			size := KnownCounts[n]
			if workers > 1 {
				size = size/workers + size/workers/8 + 64
			}
			ss[w].keys = make([]config.Key128, 0, size)
		}
	}
	var wg sync.WaitGroup
	for _, s := range ss {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s.run()
			slices.SortFunc(s.keys, config.Key128.Compare)
		}()
	}
	wg.Wait()
	var stats Stats
	for _, s := range ss {
		for size := 1; size <= n; size++ {
			stats.Unique += s.sizes[size]
		}
		stats.Patterns += int(s.sizes[n])
	}
	stats.Candidates = stats.Unique - 1
	stats.PeakFrontier = stats.Patterns // size classes grow with size
	if !keep || workers == 1 {
		return ss[0].keys, stats
	}
	keys := make([]config.Key128, 0, stats.Patterns)
	bounds := []int{0}
	for _, s := range ss {
		keys = append(keys, s.keys...)
		bounds = append(bounds, len(keys))
	}
	mergeRuns(keys, bounds)
	return keys, stats
}

// searcher is one worker's Redelmeier state. A cell is the index
// q·stride + r + R·n of the node (q, r) on the grid q ∈ [0, R·n],
// r ∈ [−R·n, R·n], which holds every node of a size-n pattern anchored
// at the origin and every neighbor of one. Index order is (Q, R)
// order, and the indices below R·n are exactly the half-plane no node
// may join.
type searcher struct {
	n               int
	worker, workers int
	keep, stopped   bool
	origin          int32 // the origin's cell index, R·n
	// visit, when set, receives every size-n pattern in search order
	// in place of keying; returning false stops the walk.
	visit func(config.Config) bool

	cells []cell
	step  []int32 // the index offsets of a node's neighbors
	// untried[s] is the untried set of the size-s pattern, one reused
	// buffer per size.
	untried [MaxKeyN][]int32
	pattern []grid.Coord // the current pattern's nodes, sorted
	leaf    []grid.Coord // a size-n pattern's nodes, sorted
	chunk   []grid.Coord // the node array visited patterns share
	dealt   int          // size-splitDepth patterns seen so far

	sizes [MaxKeyN + 1]int64 // patterns visited per size
	keys  []config.Key128    // size-n keys, sorted once the walk is done
}

// cell is one grid cell of a search: its node, and whether it is in
// the pattern, in an untried set, or was tried at a shallower level.
type cell struct {
	node   grid.Coord
	marked bool
}

// neighborhoods[R] is grid.Origin.Disk(R) without the origin: at
// R = 1 the six neighbors in grid.Directions order.
var neighborhoods = func() (nbs [MaxVisRange + 1][]grid.Coord) {
	for r := 1; r <= MaxVisRange; r++ {
		nbs[r] = grid.Origin.Disk(r)[1:]
	}
	return nbs
}()

func newSearcher(n, visRange, worker, workers int, keep bool) *searcher {
	reach := visRange * n
	stride := 2*reach + 1
	s := &searcher{n: n, worker: worker, workers: workers, keep: keep,
		cells: make([]cell, (reach+1)*stride), origin: int32(reach)}
	for i := range s.cells {
		s.cells[i].node = grid.Coord{Q: i / stride, R: i%stride - reach}
	}
	// One buffer holds the neighbor offsets and the untried sets: the
	// size-s pattern's set holds at most steps·(s+1) cells, since each
	// node adds at most steps.
	nbs := neighborhoods[visRange]
	steps := len(nbs)
	buf := make([]int32, steps+steps*n*(n+1)/2)
	s.step, buf = buf[:steps:steps], buf[steps:]
	for i, delta := range nbs {
		s.step[i] = int32(delta.Q*stride + delta.R)
	}
	for size := 0; size < n; size++ {
		c := steps * (size + 1)
		s.untried[size], buf = buf[:0:c], buf[c:]
	}
	nodes := make([]grid.Coord, 2*n)
	s.pattern, s.leaf = nodes[:0:n], nodes[n:n:2*n]
	return s
}

// run walks the whole search tree from the one-node pattern at the
// origin.
func (s *searcher) run() {
	s.cells[s.origin].marked = true
	s.untried[0] = append(s.untried[0][:0], s.origin)
	s.extend(0, s.untried[0])
}

// extend tries each cell of untried, in turn, as the next node of the
// size-size pattern. A tried cell stays marked for the later siblings'
// subtrees, which is what makes every pattern come out once; the cells
// a node adds to the untried set are unmarked when its subtree is done.
func (s *searcher) extend(size int, untried []int32) {
	if size+1 == s.n {
		if s.visit != nil {
			s.visitLeaves(untried)
			return
		}
		s.sizes[s.n] += int64(len(untried))
		if s.keep {
			for _, c := range untried {
				s.leaf = mergeInsert(s.leaf[:0], s.pattern, s.cells[c].node)
				key, _ := config.Key128Nodes(s.leaf) // exact: spread ≤ n − 1
				s.keys = append(s.keys, key)
			}
		}
		return
	}
	for i, c := range untried {
		if size+1 == splitDepth && s.workers > 1 {
			k := s.dealt
			s.dealt++
			if k%s.workers != s.worker {
				continue
			}
		}
		if size+1 >= splitDepth || s.worker == 0 {
			s.sizes[size+1]++
		}
		at := s.push(s.cells[c].node)
		next := append(s.untried[size+1][:0], untried[i+1:]...)
		kept := len(next)
		for _, d := range s.step {
			if nb := c + d; nb >= s.origin && !s.cells[nb].marked {
				s.cells[nb].marked = true
				next = append(next, nb)
			}
		}
		s.untried[size+1] = next
		s.extend(size+1, next)
		if s.stopped {
			return
		}
		for _, nb := range next[kept:] {
			s.cells[nb].marked = false
		}
		s.pattern = slices.Delete(s.pattern, at, at+1)
	}
}

// visitLeaves hands each size-n pattern the untried cells complete to
// s.visit, each on a node slice of its own that the caller may keep,
// and counts it; a false return stops the walk. The slices are cut,
// capacity-capped, from node arrays of materializeChunk patterns each,
// as materializeKeys does, so a retained Config keeps its whole chunk
// alive.
func (s *searcher) visitLeaves(untried []int32) {
	for _, c := range untried {
		s.sizes[s.n]++
		if cap(s.chunk)-len(s.chunk) < s.n {
			s.chunk = make([]grid.Coord, 0, materializeChunk*s.n)
		}
		lo := len(s.chunk)
		s.chunk = mergeInsert(s.chunk, s.pattern, s.cells[c].node)
		nodes := s.chunk[lo:len(s.chunk):len(s.chunk)]
		if !s.visit(config.FromSortedNodes(nodes)) {
			s.stopped = true
			return
		}
	}
}

// push inserts v into the sorted pattern and returns its position.
func (s *searcher) push(v grid.Coord) int {
	at, _ := slices.BinarySearchFunc(s.pattern, v, grid.Coord.Compare)
	s.pattern = slices.Insert(s.pattern, at, v)
	return at
}

// mergeRuns merges the ascending runs keys[bounds[i]:bounds[i+1]]
// into one ascending list: pairs of runs merge concurrently per round,
// ping-ponging through one auxiliary buffer.
func mergeRuns(keys []config.Key128, bounds []int) {
	if len(bounds) <= 2 {
		return
	}
	aux := make([]config.Key128, len(keys))
	src, dst := keys, aux
	for len(bounds) > 2 {
		next := make([]int, 0, len(bounds)/2+1)
		var mg sync.WaitGroup
		i := 0
		for ; i+2 < len(bounds); i += 2 {
			mg.Add(1)
			go func(lo, mid, hi int) {
				defer mg.Done()
				mergeKeys(dst[lo:hi], src[lo:mid], src[mid:hi])
			}(bounds[i], bounds[i+1], bounds[i+2])
			next = append(next, bounds[i])
		}
		if i+1 < len(bounds) { // odd run copies through unmerged
			copy(dst[bounds[i]:bounds[i+1]], src[bounds[i]:bounds[i+1]])
			next = append(next, bounds[i])
		}
		next = append(next, len(keys))
		mg.Wait()
		src, dst = dst, src
		bounds = next
	}
	copy(keys, src)
}

// mergeKeys merges two sorted runs into out (len(out) = len(a)+len(b)).
func mergeKeys(out, a, b []config.Key128) {
	w := 0
	for len(a) > 0 && len(b) > 0 {
		if a[0].Compare(b[0]) <= 0 {
			out[w] = a[0]
			a = a[1:]
		} else {
			out[w] = b[0]
			b = b[1:]
		}
		w++
	}
	copy(out[w:], a)
	copy(out[w:], b)
}

// materializeKeys decodes a sorted key list into configurations
// backed by node arrays of materializeChunk patterns each — a few
// allocations instead of one per pattern. One array for the whole
// list would need a contiguous block (58 MB at n = 10) that a heap
// fragmented by earlier sweeps cannot offer, so the process would map
// fresh memory for it.
func materializeKeys(keys []config.Key128, n int) []config.Config {
	var backing []grid.Coord
	out := make([]config.Config, len(keys))
	var err error
	for i, k := range keys {
		if i%materializeChunk == 0 {
			backing = make([]grid.Coord, 0, min(materializeChunk, len(keys)-i)*n)
		}
		lo := len(backing)
		backing, err = config.AppendKey128Nodes(backing, k)
		if err != nil {
			panic("enumerate: corrupt pattern key: " + err.Error())
		}
		out[i] = config.FromSortedNodes(backing[lo:len(backing):len(backing)])
	}
	return out
}

// materializeChunk is the number of patterns one node array of
// materializeKeys holds.
const materializeChunk = 1 << 14

func normWorkers(workers int) int {
	if workers <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return workers
}

// checkSize is the one argument guard every public entry point
// shares, so Connected, ConnectedStats, KeysStats, Count and EachWithin
// agree on negative sizes, on sizes past MaxKeyN and on radii outside
// [1, MaxVisRange].
func checkSize(n, visRange int) {
	if n < 0 {
		panic("enumerate: negative size")
	}
	if n > MaxKeyN {
		panic("enumerate: size past the exact key envelope")
	}
	if visRange < 1 || visRange > MaxVisRange {
		panic("enumerate: connectivity range outside [1, MaxVisRange]")
	}
}

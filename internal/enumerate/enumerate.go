// Package enumerate generates every connected configuration of n robots on
// the triangular grid, up to translation. These are exactly the *fixed*
// polyhexes (triangular-grid node adjacency equals hexagonal cell
// adjacency); their counts for n = 1..7 are
//
//	1, 3, 11, 44, 186, 814, 3652
//
// and the paper's "3652 patterns in total" for seven robots is the n = 7
// entry. Rotations and reflections are NOT identified: the paper's robots
// share a global compass, so differently oriented patterns are genuinely
// different inputs.
//
// Enumeration is key-native (keys.go): frontier generations are
// key-only sets — a candidate extension is keyed straight from the
// growth scratch (config.Key64Nodes through n = 7, config.Key128Nodes
// through n = 14) and deduplicated in a lock-striped shard set, so a
// duplicate candidate costs one integer map probe and no allocation,
// and a configuration is only rebuilt from its key
// (config.FromKey128) when a caller visits it. The canonical output
// order is ascending key order ("key/v1"), which coincides with the
// config.Compare order the materializing engine emitted. That engine
// (connectedMap below) remains as the fallback past the exact-key
// envelope and as the relaxed-connectivity growth loop; the
// differential reference for both is the string-keyed enumeration in
// the test-only internal/oracle package.
package enumerate

import (
	"sort"
	"sync"

	"repro/internal/config"
	"repro/internal/grid"
)

// KnownCounts lists the number of connected n-node patterns up to
// translation for n = 0..12 (fixed polyhexes, OEIS A001207 shifted).
// The paper's exhaustive space is the n = 7 entry; the n = 8 entry is
// the E11 extension sweep's. Every entry through n = 12 sits inside
// the exact Key128 envelope (spread ≤ 15), so the two-tier dedup
// reproduces these counts exactly; the tests cross-check n ≤ 10 under
// -short, n = 11 routinely, and n = 12 behind ENUM_HEAVY=1 (a minute
// of CPU and hundreds of megabytes of key set).
var KnownCounts = [13]int{
	0: 1, 1: 1, 2: 3, 3: 11, 4: 44, 5: 186, 6: 814, 7: 3652,
	8: 16689, 9: 77359, 10: 362671, 11: 1716033, 12: 8182213,
}

// Connected returns all connected n-node configurations up to
// translation, sorted by node list (config.Compare, which equals the
// canonical "key/v1" key order) so the output order is deterministic.
// It runs the key-native engine serially — frontier generations are
// key-only sets, and the result is decoded into one contiguous node
// array at the end; see ConnectedParallel for the fanned-out growth.
func Connected(n int) []config.Config {
	list, _ := ConnectedStats(n, 1)
	return list
}

// ConnectedStats is Connected plus the growth loop's Stats (workers
// ≤ 0 = GOMAXPROCS) — the instrumented entry the sweep layer threads
// into its metrics registries.
func ConnectedStats(n, workers int) ([]config.Config, Stats) {
	checkSize(n)
	if n == 0 {
		return nil, Stats{}
	}
	if n > MaxKeyN {
		list := connectedMap(n).sorted()
		return list, Stats{Patterns: len(list)}
	}
	keys, stats := KeysStats(n, workers)
	return materializeKeys(keys, n), stats
}

// ConnectedParallel is Connected with the growth step fanned out over a
// worker pool (workers ≤ 0 = GOMAXPROCS). Results are identical (and
// identically ordered) at every worker count.
func ConnectedParallel(n, workers int) []config.Config {
	checkSize(n)
	if n == 0 {
		return nil
	}
	if n > MaxKeyN {
		workers = normWorkers(workers)
		current := seedPatterns()
		for size := 1; size < n; size++ {
			current = growAllParallel(current, workers)
		}
		return current.sorted()
	}
	keys, _ := KeysStats(n, workers)
	return materializeKeys(keys, n)
}

// Count returns the number of connected n-node patterns without
// retaining, sorting, or materializing them: the growth loop runs on
// key-only sets and only the final generation's size is read back. It
// still enumerates — no closed form is known.
func Count(n int) int {
	checkSize(n)
	if n == 0 {
		return 0
	}
	if n > MaxKeyN {
		return connectedMap(n).len()
	}
	return countKeys(n, 0)
}

// connectedMap grows the connected patterns of size n serially on the
// materializing loop; the relaxed-connectivity spaces (relaxed.go) and
// the past-envelope fallbacks run on it.
func connectedMap(n int) *patternMap {
	checkSize(n)
	current := seedPatterns()
	var scr growScratch
	for size := 1; size < n; size++ {
		current = growAll(current, &scr)
	}
	return current
}

// growAll extends every pattern in the map by one node.
func growAll(in *patternMap, scr *growScratch) *patternMap {
	out := newPatternMap(in.len() * 4)
	in.each(func(c config.Config) { growInto(c, out, scr) })
	return out
}

// patternMap holds normalized configurations deduplicated by pattern,
// keyed by the two-tier compact scheme (config.Key64Nodes, then
// config.Key128Nodes past the 64-bit envelope) with a string-keyed
// overflow for patterns outside both exact encodings. Exactness of each
// tier is a property of the pattern itself, so a pattern always lands
// in the same map.
type patternMap struct {
	exact map[uint64]config.Config
	wide  map[config.Key128]config.Config
	slow  map[string]config.Config
}

func newPatternMap(capHint int) *patternMap {
	return &patternMap{exact: make(map[uint64]config.Config, capHint)}
}

// seedPatterns is the single-node starting point of every growth loop.
func seedPatterns() *patternMap {
	m := newPatternMap(1)
	one := config.New(grid.Origin)
	k, _ := one.Key64()
	m.exact[k] = one
	return m
}

func (m *patternMap) len() int { return len(m.exact) + len(m.wide) + len(m.slow) }

func (m *patternMap) each(f func(config.Config)) {
	for _, c := range m.exact {
		f(c)
	}
	for _, c := range m.wide {
		f(c)
	}
	for _, c := range m.slow {
		f(c)
	}
}

// sorted returns the patterns ordered by config.Compare.
func (m *patternMap) sorted() []config.Config {
	out := make([]config.Config, 0, m.len())
	m.each(func(c config.Config) { out = append(out, c) })
	sort.Slice(out, func(i, j int) bool { return out[i].Compare(out[j]) < 0 })
	return out
}

// growScratch holds the per-goroutine buffers of the growth step.
type growScratch struct {
	base   []grid.Coord // parent pattern's nodes
	merged []grid.Coord // parent nodes with the candidate inserted, sorted
}

// growInto inserts all one-node extensions of c into dst. Candidates are
// keyed from the scratch buffer first; only a pattern not seen before is
// materialized as a Config.
func growInto(c config.Config, dst *patternMap, scr *growScratch) {
	scr.base = c.AppendNodes(scr.base[:0])
	for _, v := range scr.base {
		for _, nb := range v.Neighbors() {
			if containsCoord(scr.base, nb) {
				continue
			}
			scr.merged = mergeInsert(scr.merged[:0], scr.base, nb)
			dst.addMerged(scr.merged)
		}
	}
}

// addMerged records the pattern of a sorted candidate node list if new.
func (m *patternMap) addMerged(merged []grid.Coord) {
	if k, ok := config.Key64Nodes(merged); ok {
		if _, dup := m.exact[k]; !dup {
			m.exact[k] = config.New(merged...).Normalize()
		}
		return
	}
	if k, ok := config.Key128Nodes(merged); ok {
		if _, dup := m.wide[k]; !dup {
			if m.wide == nil {
				m.wide = make(map[config.Key128]config.Config)
			}
			m.wide[k] = config.New(merged...).Normalize()
		}
		return
	}
	ext := config.New(merged...).Normalize()
	sk := ext.Key()
	if _, dup := m.slow[sk]; !dup {
		if m.slow == nil {
			m.slow = make(map[string]config.Config)
		}
		m.slow[sk] = ext
	}
}

// containsCoord reports membership in a small node list (linear scan —
// parents have at most a handful of nodes).
func containsCoord(nodes []grid.Coord, v grid.Coord) bool {
	for _, w := range nodes {
		if w == v {
			return true
		}
	}
	return false
}

// mergeInsert appends sorted∪{v} to dst in sorted order; v must not be
// in sorted.
func mergeInsert(dst, sorted []grid.Coord, v grid.Coord) []grid.Coord {
	inserted := false
	for _, w := range sorted {
		if !inserted && (v.Q < w.Q || (v.Q == w.Q && v.R < w.R)) {
			dst = append(dst, v)
			inserted = true
		}
		dst = append(dst, w)
	}
	if !inserted {
		dst = append(dst, v)
	}
	return dst
}

func growAllParallel(in *patternMap, workers int) *patternMap {
	if in.len() < 64 || workers == 1 {
		var scr growScratch
		return growAll(in, &scr)
	}
	jobs := make(chan config.Config, workers)
	partial := make([]*patternMap, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			local := newPatternMap(0)
			var scr growScratch
			for c := range jobs {
				growInto(c, local, &scr)
			}
			partial[w] = local
		}(w)
	}
	in.each(func(c config.Config) { jobs <- c })
	close(jobs)
	wg.Wait()
	out := newPatternMap(in.len() * 4)
	for _, p := range partial {
		for k, v := range p.exact {
			out.exact[k] = v
		}
		for k, v := range p.wide {
			if out.wide == nil {
				out.wide = make(map[config.Key128]config.Config, len(p.wide))
			}
			out.wide[k] = v
		}
		for k, v := range p.slow {
			if out.slow == nil {
				out.slow = make(map[string]config.Config, len(p.slow))
			}
			out.slow[k] = v
		}
	}
	return out
}

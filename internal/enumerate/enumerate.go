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
// Enumeration runs Redelmeier's algorithm (keys.go): every pattern is
// produced exactly once, anchored at its smallest node, so no dedup
// set is kept. A connected size-n pattern is keyed as a config.Key128
// (exact through MaxKeyN = 14 nodes), and a configuration is only
// rebuilt from its key (config.FromKey128) when a caller visits it; the
// canonical output order is ascending key order ("key/v1"), which
// coincides with the config.Compare order. The relaxed-connectivity
// spaces (relaxed.go), whose patterns may lie past the exact key, run
// the same search over a radius-R neighborhood and stream their
// patterns in search order. Every entry point refuses sizes past
// MaxKeyN and radii past MaxVisRange. The differential reference for
// both spaces is the string-keyed enumeration in the test-only
// internal/oracle package.
package enumerate

import (
	"repro/internal/config"
	"repro/internal/grid"
)

// KnownCounts lists the number of connected n-node patterns up to
// translation for n = 0..12 (fixed polyhexes, OEIS A001207 shifted).
// The paper's exhaustive space is the n = 7 entry; the n = 8 entry is
// the E11 extension sweep's. Every entry through n = 12 sits inside
// the exact Key128 envelope (spread ≤ 15), so the search reproduces
// these counts with exact keys; the tests cross-check counts through
// n = 10 under -short, n = 11 routinely, and n = 12 behind
// ENUM_HEAVY=1, and the key lists through n = 11 at one and four
// workers. A search pre-sizes its key buffers from these counts.
var KnownCounts = [13]int{
	0: 1, 1: 1, 2: 3, 3: 11, 4: 44, 5: 186, 6: 814, 7: 3652,
	8: 16689, 9: 77359, 10: 362671, 11: 1716033, 12: 8182213,
}

// Connected returns all connected n-node configurations up to
// translation, sorted by node list (config.Compare, which equals the
// canonical "key/v1" key order) so the output order is deterministic.
// It runs the search on one worker and decodes the keys into a few
// shared node arrays at the end; see ConnectedStats for the fanned-out
// search.
func Connected(n int) []config.Config {
	list, _ := ConnectedStats(n, 1)
	return list
}

// ConnectedStats is Connected plus the search's Stats (workers
// ≤ 0 = GOMAXPROCS) — the instrumented entry the sweep layer threads
// into its metrics registries.
func ConnectedStats(n, workers int) ([]config.Config, Stats) {
	checkSize(n, 1)
	if n == 0 {
		return nil, Stats{}
	}
	keys, stats := KeysStats(n, workers)
	return materializeKeys(keys, n), stats
}

// Count returns the number of connected n-node patterns without
// keeping, sorting, or materializing them: the search counts each
// size-n pattern and keys none. It still enumerates — no closed form
// is known.
func Count(n int) int {
	checkSize(n, 1)
	if n == 0 {
		return 0
	}
	_, stats := search(n, 1, normWorkers(0), false)
	return stats.Patterns
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

package enumerate

import (
	"slices"

	"repro/internal/config"
	"repro/internal/grid"
)

// ConnectedWithin returns all n-node configurations, up to translation,
// whose *visibility graph* at the given range is connected: nodes are
// adjacent in that graph when their distance is at most visRange.
// ConnectedWithin(n, 1) equals Connected(n). The paper's §V lists
// gathering from range-2-visibility-connected initial configurations as
// future work; the relaxed sweep (experiment E9) uses this enumeration.
func ConnectedWithin(n, visRange int) []config.Config {
	if n < 0 || visRange < 1 {
		panic("enumerate: bad arguments")
	}
	if n == 0 {
		return nil
	}
	current := []config.Config{config.New(grid.Origin)}
	var scr growScratch
	for size := 1; size < n; size++ {
		var seen config.PatternSet
		next := make([]config.Config, 0, len(current)*6)
		for _, c := range current {
			next = growWithinInto(c, visRange, &seen, next, &scr)
		}
		current = next
	}
	slices.SortFunc(current, config.Config.Compare)
	return current
}

// EachWithin streams every n-node visibility-connected pattern to visit
// exactly once, in deterministic order, without retaining the size-n
// generation: only the size-(n-1) parents are materialized, and the
// final growth step deduplicates through a config.PatternSet — compact
// keys, no Config values. For the ≈2.6 M-pattern n = 7 range-2 space
// (E9) that replaces gigabytes of retained configurations with a
// ~200 k-parent list plus a key set, which is what makes the space
// sweepable. Patterns stream in parent-major order (parents sorted by
// config.Compare), not globally sorted like ConnectedWithin; visit
// returning false stops the stream. It returns the number of patterns
// yielded; a nil visit just counts.
func EachWithin(n, visRange int, visit func(config.Config) bool) int {
	if n < 0 || visRange < 1 {
		panic("enumerate: bad arguments")
	}
	if n == 0 {
		return 0
	}
	if n == 1 {
		if visit != nil {
			visit(config.New(grid.Origin))
		}
		return 1
	}
	parents := ConnectedWithin(n-1, visRange)
	var seen config.PatternSet
	var scr growScratch
	count := 0
	for _, p := range parents {
		scr.base = p.AppendNodes(scr.base[:0])
		for _, v := range scr.base {
			for _, nb := range v.Disk(visRange) {
				if containsCoord(scr.base, nb) {
					continue
				}
				scr.merged = mergeInsert(scr.merged[:0], scr.base, nb)
				if !seen.AddNodes(scr.merged) {
					continue
				}
				count++
				if visit != nil && !visit(config.FromSortedNodes(scr.merged).Normalize()) {
					return count
				}
			}
		}
	}
	return count
}

// growWithinInto appends to dst, normalized, every extension of c by
// one node within visRange of an existing node whose pattern seen has
// not held yet, and returns the extended slice.
func growWithinInto(c config.Config, visRange int, seen *config.PatternSet, dst []config.Config, scr *growScratch) []config.Config {
	scr.base = c.AppendNodes(scr.base[:0])
	for _, v := range scr.base {
		for _, nb := range v.Disk(visRange) {
			if containsCoord(scr.base, nb) {
				continue
			}
			scr.merged = mergeInsert(scr.merged[:0], scr.base, nb)
			if seen.AddNodes(scr.merged) {
				dst = append(dst, config.FromSortedNodes(scr.merged).Normalize())
			}
		}
	}
	return dst
}

// RandomWithin grows one random n-node configuration whose visibility
// graph at the given range is connected, using the provided source of
// randomness. The full relaxed space for n = 7 has ≈2.6 million patterns
// (13× growth per node), so the E9 experiment samples it instead of
// sweeping it exhaustively.
func RandomWithin(n, visRange int, rng interface{ Intn(int) int }) config.Config {
	nodes := []grid.Coord{grid.Origin}
	set := map[grid.Coord]bool{grid.Origin: true}
	for len(nodes) < n {
		base := nodes[rng.Intn(len(nodes))]
		disk := base.Disk(visRange)
		cand := disk[1+rng.Intn(len(disk)-1)] // skip index 0 (= base)
		if set[cand] {
			continue
		}
		set[cand] = true
		nodes = append(nodes, cand)
	}
	return config.New(nodes...).Normalize()
}

// VisibilityConnected reports whether the configuration's visibility graph
// at the given range is connected.
func VisibilityConnected(c config.Config, visRange int) bool {
	nodes := c.Nodes()
	if len(nodes) <= 1 {
		return true
	}
	stack := []grid.Coord{nodes[0]}
	seen := map[grid.Coord]bool{nodes[0]: true}
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, w := range nodes {
			if !seen[w] && v.Distance(w) <= visRange {
				seen[w] = true
				stack = append(stack, w)
			}
		}
	}
	return len(seen) == len(nodes)
}

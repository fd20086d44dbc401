package enumerate

import (
	"repro/internal/config"
	"repro/internal/grid"
)

// EachWithin streams every n-node pattern, up to translation, whose
// *visibility graph* at the given range is connected — nodes are
// adjacent in that graph when their distance is at most visRange — to
// visit exactly once. It walks the Redelmeier search (keys.go) with the
// radius-visRange disk as the neighborhood on one worker, so patterns
// arrive normalized, in search order, each on a node slice of its own
// (cut from a node array shared by a chunk of patterns, so a retained
// Config keeps its chunk alive), and nothing but the search's own state
// and the current chunk is held. visit returning false stops the
// stream. It returns the number of patterns yielded; a nil visit just
// counts, on GOMAXPROCS workers. EachWithin(n, 1, …) streams the
// Connected(n) patterns. The paper's §V lists gathering from
// range-2-visibility-connected initial configurations as future work;
// the relaxed sweeps (experiments E9 and E16) use this enumeration.
func EachWithin(n, visRange int, visit func(config.Config) bool) int {
	checkSize(n, visRange)
	if n == 0 {
		return 0
	}
	if visit == nil {
		_, stats := search(n, visRange, normWorkers(0), false)
		return stats.Patterns
	}
	s := newSearcher(n, visRange, 0, 1, false)
	s.visit = visit
	s.run()
	return int(s.sizes[n])
}

// RandomWithin grows one random n-node configuration whose visibility
// graph at the given range is connected, using the provided source of
// randomness. The full relaxed space for n = 7 has ≈2.7 million patterns
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

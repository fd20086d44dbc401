package config

import (
	"strconv"

	"repro/internal/grid"
)

// This file implements the compact pattern keys of the packed engine.
// Config.Key builds a string per call, which made enumeration dedup and
// cycle detection allocation-bound; Key64 packs the same
// translation-invariant information into one integer for every pattern
// the paper's workloads produce (n ≤ 7 with bounded spread); key128.go
// widens the envelope to two words for the n ≥ 8 extension sweeps, and
// PatternSet falls back to string keys for the rare pattern outside
// both, so compact keying never changes semantics.

// Key64 returns a compact translation-invariant key for the pattern,
// equivalent to Key(): two configurations have equal exact keys iff they
// are the same pattern. exact is false when the pattern does not fit the
// 64-bit encoding (more than 7 nodes, or a node more than 15 away from
// the anchor in Q or R); callers must then fall back to Key().
func (c Config) Key64() (key uint64, exact bool) { return Key64Nodes(c.nodes) }

// Key64Nodes is Key64 over a raw node list, for hot paths that maintain
// the sorted slice themselves (the simulator's round loop, enumeration
// growth). nodes must be sorted by Q then R with no duplicates — the
// invariant Config maintains.
//
// Encoding: with the anchor a = nodes[0] (the lexicographic minimum, so
// every delta has dq ≥ 0), the key is built as
//
//	key = n; for each of nodes[1:]: key = key<<9 | dq<<5 | (dr+15)
//
// with dq ∈ [0,15] (4 bits) and dr ∈ [-15,15] (5 bits). Fixed-width
// fields make the encoding injective for a given n, and the leading n
// occupies disjoint value ranges for different n ≤ 7, so the key is
// injective over every exactly-encodable pattern.
func Key64Nodes(nodes []grid.Coord) (key uint64, exact bool) {
	n := len(nodes)
	if n == 0 {
		return 0, true
	}
	if n > 7 {
		return 0, false
	}
	a := nodes[0]
	key = uint64(n)
	for _, v := range nodes[1:] {
		dq := v.Q - a.Q
		dr := v.R - a.R
		if dq < 0 || dq > 15 || dr < -15 || dr > 15 {
			return 0, false
		}
		key = key<<9 | uint64(dq)<<5 | uint64(dr+15)
	}
	return key, true
}

// PatternSet is a set of patterns (configurations up to translation)
// keyed by the two-tier compact scheme: Key64 for patterns inside the
// 64-bit envelope, Key128 for patterns inside the 128-bit one, and a
// string-keyed overflow for the rest. A pattern's tier is a property of
// the pattern itself (every Key64-exact pattern is checked first), so a
// pattern always lands in the same map and membership is always exact —
// there are no hash collisions to check. The zero value is ready to
// use. It is not safe for concurrent use.
type PatternSet struct {
	exact map[uint64]struct{}
	wide  map[Key128]struct{}
	slow  map[string]struct{}
}

// Add inserts the configuration's pattern and reports whether it was
// absent.
func (s *PatternSet) Add(c Config) bool { return s.AddNodes(c.nodes) }

// AddNodes inserts the pattern of a raw node list (sorted by Q then R,
// no duplicates) and reports whether it was absent. The slice is not
// retained.
func (s *PatternSet) AddNodes(nodes []grid.Coord) bool { return s.AddPhase(nodes, 0) }

// phaseShift places AddPhase's phase in the top phaseBits bits of the
// compact keys, which are structurally zero: Key64 uses at most
// 3 + 6·9 = 57 bits and Key128's Hi word at most 121 − 64 = 57.
const (
	phaseBits  = 7
	phaseShift = 64 - phaseBits
)

// AddPhase inserts the pair (pattern of nodes, phase) and reports
// whether it was absent: one set holds the execution states (pattern,
// round mod period) of a periodic scheduler. Phase 0 is the bare
// pattern, so AddNodes and AddPhase(nodes, 0) share entries. The phase
// folds into the compact keys' zero top bits; past 2⁷−1 (no real
// period comes close) it prefixes the string key instead.
func (s *PatternSet) AddPhase(nodes []grid.Coord, phase int) bool {
	if phase < 1<<phaseBits {
		if k, ok := Key64Nodes(nodes); ok {
			k |= uint64(phase) << phaseShift
			if _, dup := s.exact[k]; dup {
				return false
			}
			if s.exact == nil {
				s.exact = make(map[uint64]struct{})
			}
			s.exact[k] = struct{}{}
			return true
		}
		if k, ok := Key128Nodes(nodes); ok {
			k.Hi |= uint64(phase) << phaseShift
			if _, dup := s.wide[k]; dup {
				return false
			}
			if s.wide == nil {
				s.wide = make(map[Key128]struct{})
			}
			s.wide[k] = struct{}{}
			return true
		}
	}
	k := New(nodes...).Key()
	if phase != 0 {
		k = strconv.Itoa(phase) + "@" + k
	}
	if _, dup := s.slow[k]; dup {
		return false
	}
	if s.slow == nil {
		s.slow = make(map[string]struct{})
	}
	s.slow[k] = struct{}{}
	return true
}

// Len returns the number of distinct patterns added.
func (s *PatternSet) Len() int { return len(s.exact) + len(s.wide) + len(s.slow) }

// Reset empties the set but keeps its maps (and their bucket storage)
// allocated, so one set can be pooled across many runs: the simulator's
// cycle detection grows a set per run, and every sweep worker hands its
// runs one reusable set instead (sim.Options.CycleSet).
func (s *PatternSet) Reset() {
	clear(s.exact)
	clear(s.wide)
	clear(s.slow)
}

// AppendNodes appends the robot nodes in sorted order to dst and returns
// the extended slice. It is the allocation-free counterpart of Nodes for
// callers that reuse a scratch buffer.
func (c Config) AppendNodes(dst []grid.Coord) []grid.Coord {
	return append(dst, c.nodes...)
}

// Compare orders configurations by node count, then lexicographically by
// the sorted node lists (Q before R). It is the deterministic order the
// enumeration emits.
func (c Config) Compare(o Config) int {
	if len(c.nodes) != len(o.nodes) {
		if len(c.nodes) < len(o.nodes) {
			return -1
		}
		return 1
	}
	for i, v := range c.nodes {
		if d := v.Compare(o.nodes[i]); d != 0 {
			return d
		}
	}
	return 0
}

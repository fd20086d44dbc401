package config

import "repro/internal/grid"

// This file extends the compact pattern keys past the 64-bit envelope.
// Key64 covers every pattern of the paper's own workloads (n ≤ 7); the
// n ≥ 8 extension sweeps (§V open problem 1, experiment E11) need exact
// keys for wider patterns, and Key128 provides them: the same
// anchor-relative fixed-width encoding as Key64, accumulated across two
// words. Together the two keys form a two-tier scheme — Key64 first,
// Key128 for patterns past it, strings only for patterns past both —
// used by PatternSet and the relaxed enumeration's pattern map. (The
// connected enumeration keys every size with Key128 alone.)

// Key128 is a two-word compact pattern key. It is a comparable value
// type, so it keys Go maps directly.
type Key128 struct{ Hi, Lo uint64 }

// Key128 returns a compact translation-invariant key for the pattern,
// equivalent to Key(): two configurations have equal exact keys iff
// they are the same pattern. exact is false when the pattern does not
// fit the 128-bit encoding (more than 14 nodes, or a node more than 15
// away from the anchor in Q or R); callers must then fall back to
// Key(). Every pattern exact under Key64 is also exact here, with the
// Key64 value in Lo and a zero Hi.
func (c Config) Key128() (key Key128, exact bool) { return Key128Nodes(c.nodes) }

// Key128Nodes is Key128 over a raw node list, for hot paths that
// maintain the sorted slice themselves. nodes must be sorted by Q then
// R with no duplicates — the invariant Config maintains.
//
// Encoding: exactly Key64's scheme on a 128-bit accumulator. With the
// anchor a = nodes[0] (the lexicographic minimum, so every delta has
// dq ≥ 0), the key is built as
//
//	key = n; for each of nodes[1:]: key = key<<9 | dq<<5 | (dr+15)
//
// with dq ∈ [0,15] (4 bits) and dr ∈ [-15,15] (5 bits). The widest
// case, n = 14, uses 4 + 13·9 = 121 bits; n = 15 would need 130, so 14
// is the envelope. Fixed-width fields make the encoding injective for
// a given n, and the leading n occupies disjoint value ranges for
// different n ≤ 14, so the key is injective over every
// exactly-encodable pattern. Connected patterns have spread at most
// n − 1 ≤ 13 < 15, so every connected pattern through n = 14 — the
// full n = 8 space of E11 included — is exact.
func Key128Nodes(nodes []grid.Coord) (key Key128, exact bool) {
	n := len(nodes)
	if n == 0 {
		return Key128{}, true
	}
	if n > 14 {
		return Key128{}, false
	}
	a := nodes[0]
	key.Lo = uint64(n)
	for _, v := range nodes[1:] {
		dq := v.Q - a.Q
		dr := v.R - a.R
		if dq < 0 || dq > 15 || dr < -15 || dr > 15 {
			return Key128{}, false
		}
		key.Hi = key.Hi<<9 | key.Lo>>55
		key.Lo = key.Lo<<9 | uint64(dq)<<5 | uint64(dr+15)
	}
	return key, true
}

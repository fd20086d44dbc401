package config

import "repro/internal/grid"

// This file holds the exact state key. Key128 is an anchor-relative
// fixed-width encoding accumulated across two words, which covers
// every connected pattern through MaxKeyNodes robots — the paper's
// n = 7 space and every n ≥ 8 extension sweep (§V open problem 1)
// alike. It is the one key of every store that caches facts about
// states (internal/memo's outcome and solver stores), of the connected
// enumeration, and of the verdict table; WithPhase folds a periodic
// scheduler's phase into it. States with no exact key (more than
// MaxKeyNodes robots, or a spread past 15, which only relaxed starts
// reach) are not memoized. The run loop's cycle index (PatternSet)
// needs no key: it compares anchor-relative nodes.

// MaxKeyNodes is the largest node count the exact Key128 encoding
// covers: n = MaxKeyNodes uses 4 + 9·(n−1) = 121 bits, and one more
// node would need 130. Every connected pattern through this size is
// exactly encodable (spread at most n − 1 ≤ 13 < 15), which is what
// lets the enumeration key every pattern through it. It is the one
// statement of the envelope: the enumeration, adversary and serving
// bounds derive from it.
const MaxKeyNodes = 14

// Key128 is a two-word compact pattern key. It is a comparable value
// type, so it keys Go maps directly.
type Key128 struct{ Hi, Lo uint64 }

// Compare orders keys ascending, Hi before Lo — the "key/v1" canonical
// source order.
func (k Key128) Compare(o Key128) int {
	switch {
	case k.Hi != o.Hi:
		if k.Hi < o.Hi {
			return -1
		}
		return 1
	case k.Lo != o.Lo:
		if k.Lo < o.Lo {
			return -1
		}
		return 1
	}
	return 0
}

// Hash mixes both key words through a full-avalanche finalizer
// (murmur3 fmix64): pattern keys concentrate their entropy in a few
// delta fields, so a plain multiplicative hash leaves bits clustered
// and linear probing degrades. After fmix64 every output bit depends
// on every input bit, so any slice of the hash indexes a table well.
func (k Key128) Hash() uint64 { return fmix64(k.Lo ^ k.Hi*0x9e3779b97f4a7c15) }

// fmix64 is murmur3's 64-bit finalizer: every output bit depends on
// every input bit.
func fmix64(h uint64) uint64 {
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return h
}

// Key128 returns a compact translation-invariant key for the pattern,
// equivalent to Key(): two configurations have equal exact keys iff
// they are the same pattern. exact is false when the pattern does not
// fit the 128-bit encoding (more than MaxKeyNodes nodes, or a node more
// than 15 away from the anchor in Q or R).
func (c Config) Key128() (key Key128, exact bool) { return Key128Nodes(c.nodes) }

// Key128Nodes is Key128 over a raw node list, for hot paths that
// maintain the sorted slice themselves. nodes must be sorted by Q then
// R with no duplicates — the invariant Config maintains.
//
// Encoding: with the anchor a = nodes[0] (the lexicographic minimum,
// so every delta has dq ≥ 0), the key is built as
//
//	key = n; for each of nodes[1:]: key = key<<9 | dq<<5 | (dr+15)
//
// with dq ∈ [0,15] (4 bits) and dr ∈ [-15,15] (5 bits). The widest
// case, n = MaxKeyNodes, uses 121 bits. Fixed-width fields make the
// encoding injective for a given n, and the leading n occupies disjoint
// value ranges for different n ≤ MaxKeyNodes, so the key is injective
// over every exactly-encodable pattern. Connected patterns have spread
// at most n − 1 < 15, so every connected pattern through MaxKeyNodes
// nodes is exact.
func Key128Nodes(nodes []grid.Coord) (key Key128, exact bool) {
	n := len(nodes)
	if n == 0 {
		return Key128{}, true
	}
	if n > MaxKeyNodes {
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

// phaseBits is the width of the phase field WithPhase folds into a
// key, and phaseShift its position: an exact key uses at most 121 bits
// (see MaxKeyNodes), so the top 7 bits of Hi are zero for every
// pattern and a phase folded into them cannot collide with another
// pattern's key.
const (
	phaseBits  = 7
	phaseShift = 64 - phaseBits
)

// WithPhase scopes an exact key by an execution phase — the round
// number modulo a deterministic scheduler's period, for clients whose
// execution state is (pattern, phase) rather than the bare pattern:
// the run loop's outcome memo under a periodic scheduler. Phase 0
// returns the key unchanged, so phase-less clients and phase-0 states
// share entries. ok is false for a phase outside
// [0, 2⁷−1]: that state has no exact key (no real scheduler period
// comes close).
func (k Key128) WithPhase(phase int) (key Key128, ok bool) {
	if phase < 0 || phase >= 1<<phaseBits {
		return Key128{}, false
	}
	k.Hi |= uint64(phase) << phaseShift
	return k, true
}

package config

import (
	"encoding/binary"
	"math/bits"

	"repro/internal/grid"
)

// PatternSet is an exact set of execution states (pattern, phase): a
// configuration up to translation, paired with the round number modulo
// a periodic scheduler's period (phase 0 for FSYNC and for the bare
// pattern). It is the run loop's cycle index, so it holds the states of
// one run at a time.
//
// Every state has one representation, whatever its size or spread: its
// phase and its nodes relative to nodes[0], varint-encoded into one
// arena (about 2n+1 bytes for n robots). An open-addressed slot table
// finds entries by a full-avalanche hash of the phase and the relative
// nodes, and a hash match is confirmed by decoding the stored state, so
// membership is exact with no envelope. The zero value is ready to use.
// It is not safe for concurrent use.
type PatternSet struct {
	slots   []uint32     // entry index + 1; 0 marks an empty slot
	entries []stateEntry // in insertion order
	arena   []byte       // every entry's encoded state, back to back
}

// stateEntry is one state: its hash and its self-delimiting encoding at
// arena[off:end], so one set may hold states of different sizes.
type stateEntry struct {
	hash     uint64
	off, end int32
}

// minSlots is the slot table's size on first use; it doubles at ¾ load.
const minSlots = 16

// AddPhase inserts the state (pattern of nodes, phase) and reports
// whether it was absent. nodes must be sorted by Q then R with no
// duplicates — the invariant Config maintains; the slice is not
// retained. Phases are plain ints: any value names a distinct state.
func (s *PatternSet) AddPhase(nodes []grid.Coord, phase int) bool {
	var a grid.Coord
	if len(nodes) > 0 {
		a = nodes[0]
	}
	h := uint64(phase)*0x9e3779b97f4a7c15 ^ uint64(len(nodes))
	for _, v := range nodes {
		x := uint64(uint32(v.Q-a.Q))<<32 | uint64(uint32(v.R-a.R))
		h = bits.RotateLeft64(h^x, 31) * 0xff51afd7ed558ccd
	}
	h = fmix64(h)
	if len(s.slots) == 0 {
		s.slots = make([]uint32, minSlots)
		s.entries = make([]stateEntry, 0, minSlots)
		s.arena = make([]byte, 0, minSlots*(2*len(nodes)+1))
	}
	mask := uint64(len(s.slots) - 1)
	i := h & mask
	for ; s.slots[i] != 0; i = (i + 1) & mask {
		if s.matches(&s.entries[s.slots[i]-1], h, nodes, a, phase) {
			return false
		}
	}
	off := len(s.arena)
	s.arena = binary.AppendVarint(s.arena, int64(phase))
	for _, v := range nodes {
		s.arena = binary.AppendVarint(binary.AppendVarint(s.arena, int64(v.Q-a.Q)), int64(v.R-a.R))
	}
	s.entries = append(s.entries, stateEntry{hash: h, off: int32(off), end: int32(len(s.arena))})
	s.slots[i] = uint32(len(s.entries))
	if 4*len(s.entries) > 3*len(s.slots) {
		s.grow()
	}
	return true
}

// matches reports whether e is the state (nodes, phase) whose hash is
// h and whose anchor is a.
func (s *PatternSet) matches(e *stateEntry, h uint64, nodes []grid.Coord, a grid.Coord, phase int) bool {
	b := s.arena[e.off:e.end]
	next := func(want int) bool {
		v, k := binary.Varint(b)
		b = b[max(k, 0):]
		return k > 0 && v == int64(want)
	}
	ok := e.hash == h && next(phase)
	for j := 0; ok && j < len(nodes); j++ {
		ok = next(nodes[j].Q-a.Q) && next(nodes[j].R-a.R)
	}
	return ok && len(b) == 0
}

// grow doubles the slot table and re-indexes every entry by its stored
// hash.
func (s *PatternSet) grow() {
	s.slots = make([]uint32, 2*len(s.slots))
	mask := uint64(len(s.slots) - 1)
	for k, e := range s.entries {
		i := e.hash & mask
		for s.slots[i] != 0 {
			i = (i + 1) & mask
		}
		s.slots[i] = uint32(k + 1)
	}
}

// Reset empties the set but keeps its slot table and arena allocated,
// so one set can be pooled across many runs: the simulator's cycle
// detection fills a set per run, and every sweep worker hands its runs
// one reusable set instead (sim.Options.CycleSet).
func (s *PatternSet) Reset() {
	clear(s.slots)
	s.entries = s.entries[:0]
	s.arena = s.arena[:0]
}

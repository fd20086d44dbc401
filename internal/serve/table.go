package serve

import (
	_ "embed"
	"encoding/binary"
	"fmt"
	"sync"

	"repro/internal/artifact"
	"repro/internal/config"
	"repro/internal/enumerate"
)

// TableSchedules is the robustness axis length of every table entry:
// each pattern's Record counts gathered schedules among SSYNC seeds
// 1..TableSchedules (the sweep.SeedRange convention, a prefix of the
// E12 seed set).
const TableSchedules = 8

// TableKind is the format of verdicts.bin (cmd/verdictgen). Its format
// parameters are the robot-count bounds minN, maxN; its payload is one
// 24-byte record — Key128 Hi, Lo and the Record, little-endian — per
// connected pattern in those bounds, in strictly ascending key order.
// A key leads with its robot count (config.Key128Nodes), so the n-robot
// rows are a contiguous range, located by enumerate.KnownCounts.
var TableKind = artifact.Kind{Magic: "PHXVRDT1", Version: 1, RecordSize: tableRecordSize}

const tableRecordSize = 24

//go:embed verdicts.bin
var verdictsBin []byte

// verdictTable is a verified verdict table over the robot counts
// [minN, maxN]: keys ascending, recs[i] the verdict of keys[i].
type verdictTable struct {
	minN, maxN int
	keys       []config.Key128
	recs       []Record
}

// table verifies the embedded artifact once, on first use. A table
// that fails verification is a build defect, not a runtime condition.
var table = sync.OnceValue(func() *verdictTable {
	t, err := decodeTable(verdictsBin)
	if err != nil {
		panic("serve: embedded verdicts.bin: " + err.Error())
	}
	return t
})

// decodeTable verifies a verdict-table artifact: the envelope's digest,
// bounds inside enumerate.KnownCounts, a row count equal to the known
// pattern count of those bounds, and strictly ascending keys.
func decodeTable(b []byte) (*verdictTable, error) {
	h, payload, err := artifact.Read(b, TableKind)
	if err != nil {
		return nil, err
	}
	t := &verdictTable{minN: int(h.Params[0]), maxN: int(h.Params[1])}
	if t.minN < 1 || t.maxN < t.minN || t.maxN >= len(enumerate.KnownCounts) {
		return nil, fmt.Errorf("serve: table bounds [%d, %d] outside the known counts", t.minN, t.maxN)
	}
	if _, rows, _ := t.span(t.maxN); uint64(rows) != h.Count {
		return nil, fmt.Errorf("serve: table has %d rows, n in [%d, %d] has %d patterns", h.Count, t.minN, t.maxN, rows)
	}
	t.keys, t.recs = make([]config.Key128, h.Count), make([]Record, h.Count)
	for i := range t.keys {
		r := payload[i*tableRecordSize:]
		t.keys[i] = config.Key128{Hi: binary.LittleEndian.Uint64(r), Lo: binary.LittleEndian.Uint64(r[8:])}
		t.recs[i] = Record(binary.LittleEndian.Uint64(r[16:]))
		if i > 0 && t.keys[i-1].Compare(t.keys[i]) >= 0 {
			return nil, fmt.Errorf("serve: table keys not strictly ascending at row %d", i)
		}
	}
	return t, nil
}

// span returns the row range [lo, hi) of the n-robot patterns, from the
// known pattern counts of every smaller covered n.
func (t *verdictTable) span(n int) (lo, hi int, ok bool) {
	if n < t.minN || n > t.maxN {
		return 0, 0, false
	}
	for m := t.minN; m < n; m++ {
		lo += enumerate.KnownCounts[m]
	}
	return lo, lo + enumerate.KnownCounts[n], true
}

// TableLookup returns the precomputed verdict for the pattern with the
// given exact Key128, if the table covers it: a binary search over the
// sorted keys, allocation-free.
func TableLookup(k config.Key128) (Record, bool) {
	t := table()
	lo, hi := 0, len(t.keys)
	for lo < hi {
		if m := int(uint(lo+hi) >> 1); t.keys[m].Compare(k) < 0 {
			lo = m + 1
		} else {
			hi = m
		}
	}
	if lo < len(t.keys) && t.keys[lo] == k {
		return t.recs[lo], true
	}
	return 0, false
}

// TableLen returns the number of patterns the table covers.
func TableLen() int { return len(table().keys) }

// TableBounds returns the inclusive robot-count range the table covers.
func TableBounds() (minN, maxN int) { t := table(); return t.minN, t.maxN }

// TableRange returns the half-open index range [lo, hi) of the n-robot
// entries in table order; ok is false when the table does not cover n.
func TableRange(n int) (lo, hi int, ok bool) { return table().span(n) }

// TableEntry returns table row i (in ascending key order, which is n
// ascending).
func TableEntry(i int) (config.Key128, Record) {
	t := table()
	return t.keys[i], t.recs[i]
}

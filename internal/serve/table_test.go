package serve

import (
	"bytes"
	"context"
	"os"
	"runtime"
	"testing"

	"repro/internal/config"
	"repro/internal/enumerate"
	"repro/internal/sim"
)

// TestTableShape: the committed table covers exactly the known
// connected pattern counts for every n it claims, and the per-n row
// ranges derived from those counts line up with the sorted records.
func TestTableShape(t *testing.T) {
	minN, maxN := TableBounds()
	if minN != 1 || maxN != 8 {
		t.Fatalf("table bounds [%d, %d], want [1, 8]", minN, maxN)
	}
	total := 0
	for n := minN; n <= maxN; n++ {
		lo, hi, ok := TableRange(n)
		if !ok {
			t.Fatalf("TableRange(%d) not covered", n)
		}
		if got, want := hi-lo, enumerate.KnownCounts[n]; got != want {
			t.Errorf("n=%d: %d entries, want %d", n, got, want)
		}
		// The first and last key of the range decode to exactly n
		// robots: the KnownCounts-derived offsets match the records.
		for _, i := range []int{lo, hi - 1} {
			k, _ := TableEntry(i)
			c, err := config.FromKey128(k)
			if err != nil {
				t.Fatalf("n=%d: entry %d key does not decode: %v", n, i, err)
			}
			if c.Len() != n {
				t.Errorf("n=%d: entry %d decodes to %d robots", n, i, c.Len())
			}
		}
		total += hi - lo
	}
	if total != TableLen() {
		t.Fatalf("offsets cover %d entries, table has %d", total, TableLen())
	}
	if _, _, ok := TableRange(9); ok {
		t.Fatal("TableRange(9) claims coverage beyond the table")
	}
	// Keys are unique: a binary search must find every entry.
	seen := make(map[[2]uint64]bool, TableLen())
	for i := 0; i < TableLen(); i++ {
		k, _ := TableEntry(i)
		id := [2]uint64{k.Hi, k.Lo}
		if seen[id] {
			t.Fatalf("duplicate key at entry %d", i)
		}
		seen[id] = true
	}
}

// TestTablePins spot-checks the committed table against the
// experiments' pinned aggregate counts — the table must tell exactly
// the story E11 (n = 8 FSYNC map), E13/E14 (exact defeasibility) and
// E12 (SSYNC robustness) already pinned.
func TestTablePins(t *testing.T) {
	count := func(n int, f func(Record) bool) int {
		lo, hi, ok := TableRange(n)
		if !ok {
			t.Fatalf("n=%d not covered", n)
		}
		c := 0
		for i := lo; i < hi; i++ {
			if _, rec := TableEntry(i); f(rec) {
				c++
			}
		}
		return c
	}

	// E11: the n = 8 FSYNC outcome map.
	e11 := map[sim.Status]int{
		sim.Gathered:     15364,
		sim.Stalled:      145,
		sim.Livelock:     671,
		sim.Collision:    440,
		sim.Disconnected: 69,
	}
	for st, want := range e11 {
		if got := count(8, func(r Record) bool { return r.FSYNCStatus() == st }); got != want {
			t.Errorf("E11 pin: n=8 FSYNC %v = %d, want %d", st, got, want)
		}
	}

	// E13: n = 7 exact defeasibility (3228 defeatable / 424 safe).
	if got := count(7, func(r Record) bool { return r.Adversary() == AdvDefeatable }); got != 3228 {
		t.Errorf("E13 pin: n=7 defeatable = %d, want 3228", got)
	}
	if got := count(7, func(r Record) bool { return r.Adversary() == AdvSafe }); got != 424 {
		t.Errorf("E13 pin: n=7 safe = %d, want 424", got)
	}

	// E14: n = 8 exact defeasibility (16412 defeatable / 277 safe).
	if got := count(8, func(r Record) bool { return r.Adversary() == AdvDefeatable }); got != 16412 {
		t.Errorf("E14 pin: n=8 defeatable = %d, want 16412", got)
	}
	if got := count(8, func(r Record) bool { return r.Adversary() == AdvSafe }); got != 277 {
		t.Errorf("E14 pin: n=8 safe = %d, want 277", got)
	}

	// E13/E14 witness facts: the n = 8 witness-kind split and the
	// longest strategies (16 at n = 7, 22 at n = 8).
	e14Kinds := map[sim.Status]int{
		sim.Livelock:     14459,
		sim.Collision:    1654,
		sim.Stalled:      201,
		sim.Disconnected: 98,
	}
	for st, want := range e14Kinds {
		if got := count(8, func(r Record) bool { return r.Adversary() == AdvDefeatable && r.WitnessKind() == st }); got != want {
			t.Errorf("E14 pin: n=8 %v witnesses = %d, want %d", st, got, want)
		}
	}
	for n, want := range map[int]int{7: 16, 8: 22} {
		lo, hi, _ := TableRange(n)
		deepest := 0
		for i := lo; i < hi; i++ {
			_, rec := TableEntry(i)
			deepest = max(deepest, rec.WitnessDepth())
		}
		if deepest != want {
			t.Errorf("E13/E14 pin: n=%d max witness depth = %d, want %d", n, deepest, want)
		}
	}

	// Every table entry inside the solver envelope is decided: the
	// table never serves "undecided" for n ≤ 8.
	for n := 1; n <= 8; n++ {
		if got := count(n, func(r Record) bool { return r.Adversary() == AdvUndecided }); got != 0 {
			t.Errorf("n=%d: %d undecided entries in the table", n, got)
		}
	}

	// E12 subset: all 3652 n = 7 patterns gathered under all 32 SSYNC
	// seeds, so under the table's seeds 1..8 prefix every entry must be
	// fully robust.
	if got := count(7, func(r Record) bool { return r.Robust() == TableSchedules }); got != 3652 {
		t.Errorf("E12 pin: n=7 fully robust = %d, want 3652", got)
	}

	// E2 / Theorem 2: every n = 7 pattern gathers under FSYNC.
	if got := count(7, func(r Record) bool { return r.FSYNCStatus() == sim.Gathered }); got != 3652 {
		t.Errorf("Theorem 2 pin: n=7 FSYNC gathered = %d, want 3652", got)
	}
}

// TestTableFixedPointSmall regenerates the n ≤ 7 table prefix from the
// live engines and requires it to match the committed entries exactly —
// the committed table is a fixed point of the generator. The n = 8
// suffix (the E14-scale adversary solve) is covered by
// TestTableFixedPointFull under VERDICT_HEAVY=1.
func TestTableFixedPointSmall(t *testing.T) {
	if testing.Short() {
		t.Skip("regeneration sweep: skipped under -short")
	}
	data, err := GenerateTable(context.Background(), 1, 7, runtime.GOMAXPROCS(0), nil)
	if err != nil {
		t.Fatal(err)
	}
	got, err := decodeTable(data)
	if err != nil {
		t.Fatal(err)
	}
	_, hi, _ := TableRange(7)
	if len(got.keys) != hi {
		t.Fatalf("recomputed %d entries for n <= 7, committed table has %d", len(got.keys), hi)
	}
	for i := range got.keys {
		k, rec := TableEntry(i)
		if k != got.keys[i] || rec != got.recs[i] {
			t.Fatalf("entry %d diverges: recomputed (%#x,%#x)=%#x, committed (%#x,%#x)=%#x",
				i, got.keys[i].Hi, got.keys[i].Lo, uint64(got.recs[i]), k.Hi, k.Lo, uint64(rec))
		}
	}
}

// TestTableFixedPointFull regenerates the whole n ≤ 8 table — the E14
// adversary workload included — and byte-compares it against the
// committed verdicts.bin. Heavy (≈30 s); opt in with VERDICT_HEAVY=1.
func TestTableFixedPointFull(t *testing.T) {
	if os.Getenv("VERDICT_HEAVY") == "" {
		t.Skip("set VERDICT_HEAVY=1 to regenerate and byte-compare the full n<=8 table")
	}
	data, err := GenerateTable(context.Background(), 1, 8, runtime.GOMAXPROCS(0), t.Logf)
	if err != nil {
		t.Fatal(err)
	}
	committed, err := os.ReadFile("verdicts.bin")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, committed) {
		t.Fatalf("regenerated table differs from committed verdicts.bin (%d vs %d bytes); run go generate ./internal/serve",
			len(data), len(committed))
	}
}

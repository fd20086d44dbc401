package serve

import (
	"fmt"

	"repro/internal/sim"
)

// Record is one pattern's complete packed verdict: everything the repo
// has decided about the pattern — FSYNC outcome, SSYNC robustness,
// exact defeasibility and its witness shape — in a single uint64, so
// the generated verdict table is flat (Key128, uint64) records and the
// hot lookup path moves no memory and allocates nothing.
//
// Layout (low to high bits):
//
//	 0..2   FSYNC status (sim.Status)
//	 3..16  FSYNC rounds to outcome (14 bits, saturating)
//	17..32  FSYNC robot moves to outcome (16 bits, saturating)
//	33..38  SSYNC robustness: schedules gathered of the robustness
//	        axis (6 bits; the axis length is TableSchedules for table
//	        entries, Options.Schedules for solved ones)
//	39..40  adversary verdict (AdvVerdict)
//	41..43  witness kind as the witness's sim.Status (meaningful only
//	        when the verdict is AdvDefeatable)
//	44..59  witness strategy depth: prefix + one cycle lap (16 bits,
//	        saturating)
type Record uint64

// AdvVerdict is the packed defeasibility verdict. It mirrors
// adversary.VerdictKind but is its own type so the packed encoding
// stays stable even if the solver's enum ever reorders.
type AdvVerdict uint8

const (
	// AdvDefeatable: some SSYNC activation schedule prevents gathering
	// (the exact solver found a replay-verified witness).
	AdvDefeatable AdvVerdict = iota
	// AdvSafe: the exact solver proved every schedule gathers.
	AdvSafe
	// AdvUndecided: no exact claim — the pattern is outside the
	// decided envelope (n above Options.AdvMaxN, or a disconnected
	// start the safety game does not model).
	AdvUndecided
)

// String names the verdict in the cmd/adversary JSONL vocabulary.
func (v AdvVerdict) String() string {
	switch v {
	case AdvDefeatable:
		return "defeatable"
	case AdvSafe:
		return "safe"
	default:
		return "undecided"
	}
}

const (
	recStatusShift = 0
	recRoundsShift = 3
	recMovesShift  = 17
	recRobustShift = 33
	recAdvShift    = 39
	recWKindShift  = 41
	recDepthShift  = 44

	recStatusMask = 1<<3 - 1
	recRoundsMax  = 1<<14 - 1
	recMovesMax   = 1<<16 - 1
	recRobustMax  = 1<<6 - 1
	recWKindMask  = 1<<3 - 1
	recDepthMax   = 1<<16 - 1
)

func sat(v, max int) uint64 {
	if v < 0 {
		return 0
	}
	if v > max {
		return uint64(max)
	}
	return uint64(v)
}

// PackRecord packs one pattern's verdict. Out-of-range counters
// saturate at their field maxima (no real n ≤ 8 value comes close; the
// generator additionally rejects any entry that saturates, see
// checkExact).
func PackRecord(status sim.Status, rounds, moves, robust int, adv AdvVerdict, wkind sim.Status, depth int) Record {
	return Record(uint64(status)&recStatusMask<<recStatusShift |
		sat(rounds, recRoundsMax)<<recRoundsShift |
		sat(moves, recMovesMax)<<recMovesShift |
		sat(robust, recRobustMax)<<recRobustShift |
		uint64(adv&3)<<recAdvShift |
		uint64(wkind)&recWKindMask<<recWKindShift |
		sat(depth, recDepthMax)<<recDepthShift)
}

// checkExact re-packs the inputs and fails if any field saturated or
// truncated — the generator's guard that the table is lossless.
func checkExact(status sim.Status, rounds, moves, robust int, adv AdvVerdict, wkind sim.Status, depth int) (Record, error) {
	r := PackRecord(status, rounds, moves, robust, adv, wkind, depth)
	if r.FSYNCStatus() != status || r.FSYNCRounds() != rounds || r.FSYNCMoves() != moves ||
		r.Robust() != robust || r.Adversary() != adv || r.WitnessKind() != wkind || r.WitnessDepth() != depth {
		return 0, fmt.Errorf("serve: verdict does not pack losslessly: status=%v rounds=%d moves=%d robust=%d adv=%v wkind=%v depth=%d",
			status, rounds, moves, robust, adv, wkind, depth)
	}
	return r, nil
}

// FSYNCStatus returns the deterministic FSYNC run's outcome.
func (r Record) FSYNCStatus() sim.Status { return sim.Status(r >> recStatusShift & recStatusMask) }

// FSYNCRounds returns the FSYNC rounds to the outcome.
func (r Record) FSYNCRounds() int { return int(r >> recRoundsShift & recRoundsMax) }

// FSYNCMoves returns the FSYNC robot moves to the outcome.
func (r Record) FSYNCMoves() int { return int(r >> recMovesShift & recMovesMax) }

// Robust returns how many schedules of the robustness axis gathered.
func (r Record) Robust() int { return int(r >> recRobustShift & recRobustMax) }

// Adversary returns the exact defeasibility verdict.
func (r Record) Adversary() AdvVerdict { return AdvVerdict(r >> recAdvShift & 3) }

// WitnessKind returns the defeating witness's status (livelock,
// collision, disconnected or stalled); meaningful only when
// Adversary() is AdvDefeatable.
func (r Record) WitnessKind() sim.Status { return sim.Status(r >> recWKindShift & recWKindMask) }

// WitnessDepth returns the witness strategy length (prefix plus one
// cycle lap); 0 unless Adversary() is AdvDefeatable.
func (r Record) WitnessDepth() int { return int(r >> recDepthShift & recDepthMax) }

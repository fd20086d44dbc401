package core

import (
	"fmt"

	"repro/internal/vision"
)

// Variant selects how much of the reconstruction is active. The zero value
// is the full shipped algorithm; the other variants exist for the ablation
// experiments (EXPERIMENTS.md §E2), which measure what each layer buys.
type Variant uint8

// Ablation levels, cumulative: each includes everything above it.
const (
	// VariantFull is the shipped algorithm: transcribed pseudocode,
	// connectivity guard, hole-filling, and the synthesized view table.
	VariantFull Variant = iota
	// VariantNoTable drops the synthesized view-override table.
	VariantNoTable
	// VariantNoReconstruction additionally drops the hole-filling rule.
	VariantNoReconstruction
	// VariantPaper is the bare transcription of Algorithm 1 (with the two
	// typo repairs and the line-23 deference guard), without the
	// connectivity safety layer.
	VariantPaper
)

var variantNames = [...]string{
	VariantFull:             "full",
	VariantNoTable:          "no-table",
	VariantNoReconstruction: "no-reconstruction",
	VariantPaper:            "paper",
}

// String names the variant for reports.
func (vr Variant) String() string {
	if int(vr) < len(variantNames) {
		return variantNames[vr]
	}
	return fmt.Sprintf("Variant(%d)", uint8(vr))
}

// Gatherer is the paper's visibility-range-2 gathering algorithm. The zero
// value is the complete algorithm; set Variant for ablations. Table, when
// non-nil, replaces the generated override table (the rule synthesizer
// uses this while searching).
type Gatherer struct {
	Variant Variant
	Table   map[string]Move
}

// Name implements Algorithm.
func (g Gatherer) Name() string { return "shibata-range2-" + g.Variant.String() }

// VisibilityRange implements Algorithm; the paper's algorithm needs
// range 2 and is optimal in that respect (Theorem 1).
func (Gatherer) VisibilityRange() int { return 2 }

// Compute implements Algorithm: the Look-Compute decision for one robot.
func (g Gatherer) Compute(v vision.View) Move {
	if g.Variant == VariantPaper {
		return g.paperMove(v)
	}
	if g.Variant == VariantFull {
		table := g.Table
		if table == nil {
			table = generatedOverrides
		}
		if m, ok := table[v.Key()]; ok {
			if !m.IsMove() || safeMove(v, m.Direction()) {
				return m
			}
			return Stay
		}
	}
	m := g.paperMove(v)
	if m.IsMove() {
		if safeMove(v, m.Direction()) {
			return m
		}
		return Stay
	}
	if g.Variant == VariantNoReconstruction {
		return Stay
	}
	return reconstructionMove(v)
}

// gathererMemos are the process-wide memo tables behind ComputePacked,
// one per variant so ablations never share decisions. They fill on
// first use and are shared across every run and sweep in the process —
// the second sweep of a benchmark starts fully warm. (To share
// decisions across processes of a wider pipeline, wrap with
// core.Memoize and a caller-owned Memo.)
var gathererMemos = func() (ms [len(variantNames)]*memoTable) {
	for i := range ms {
		ms[i] = newMemoTable()
	}
	return ms
}()

// ComputePacked implements PackedAlgorithm: a memoized Compute. The
// sweep workloads revisit a small set of distinct views, so after warmup
// the Look-Compute decision is a probe of the variant's lock-free table
// — atomic loads only, no lock and no allocation. A Gatherer with a
// custom Table bypasses the memo: the synthesizer mutates tables
// between runs, and cached decisions would leak across candidate
// tables.
func (g Gatherer) ComputePacked(pv vision.PackedView) Move {
	if g.Table != nil || int(g.Variant) >= len(gathererMemos) {
		return g.Compute(pv.Unpack())
	}
	// The probe is inline rather than through memoTable.compute: passing
	// g as its Algorithm argument would box the Gatherer on every Look.
	t, key := gathererMemos[g.Variant], pv.Key64()
	if mv, ok := t.load(key); ok {
		return mv
	}
	mv := g.Compute(pv.Unpack())
	t.store(key, mv)
	return mv
}

var _ PackedAlgorithm = Gatherer{}

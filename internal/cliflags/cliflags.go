// Package cliflags centralizes the sweep-shaping flags the CLI
// front-ends share. cmd/verify, cmd/adversary, cmd/sweepd and
// cmd/verdictd all answer "which algorithm, which space, which
// scheduler" questions with the same -alg/-n/-sched/-seeds/-range/
// -max-rounds vocabulary; registering them here keeps the flag names,
// defaults and usage strings identical across binaries and the
// SpecDesc construction in one place instead of four copies.
package cliflags

import (
	"flag"
	"fmt"

	"repro/internal/core"
	"repro/internal/enumerate"
	"repro/internal/sweep"
)

// Set selects which of the shared flags a command registers — the
// commands differ in which axes apply (cmd/adversary has no scheduler
// axis: it is universally quantified over schedules).
type Set uint

const (
	// FlagAlg registers -alg, the core.ByName algorithm selector.
	FlagAlg Set = 1 << iota
	// FlagN registers -n, the robot count.
	FlagN
	// FlagSched registers -sched, the scheduler selector.
	FlagSched
	// FlagSeeds registers -seeds, the activation schedules per pattern.
	FlagSeeds
	// FlagRange registers -range, the connectivity relaxation.
	FlagRange
	// FlagMaxRounds registers -max-rounds, the per-run round budget.
	FlagMaxRounds

	// SweepSet is the full sweep vocabulary (cmd/verify, sweepd run).
	SweepSet = FlagAlg | FlagN | FlagSched | FlagSeeds | FlagRange | FlagMaxRounds
)

// Flags holds the registered flag values. Pointers are nil for flags
// outside the registered Set.
type Flags struct {
	Alg       *string
	N         *int
	Sched     *string
	Seeds     *int
	VisRange  *int
	MaxRounds *int
}

// Register installs the selected shared flags on fs with the canonical
// names, defaults and usage strings.
func Register(fs *flag.FlagSet, which Set) *Flags {
	f := &Flags{}
	if which&FlagAlg != 0 {
		f.Alg = fs.String("alg", "full", "algorithm (full, no-table, no-reconstruction, paper, three, idle, greedy)")
	}
	if which&FlagN != 0 {
		f.N = fs.Int("n", 7, "robot count: every connected n-robot pattern")
	}
	if which&FlagSched != 0 {
		f.Sched = fs.String("sched", "fsync", "scheduler: fsync, ssync, cent, or adv (exact adversarial decision, where the command supports it)")
	}
	if which&FlagSeeds != 0 {
		f.Seeds = fs.Int("seeds", 1, fmt.Sprintf("activation schedules per pattern (ssync robustness axis; seeds 1..M, at most %d)", sweep.MaxSeeds))
	}
	if which&FlagRange != 0 {
		f.VisRange = fs.Int("range", 1, fmt.Sprintf("connectivity relaxation: visibility-R-connected patterns (1 = adjacency, the paper's space; at most %d)", enumerate.MaxVisRange))
	}
	if which&FlagMaxRounds != 0 {
		f.MaxRounds = fs.Int("max-rounds", 0, "round budget per run (0 = default)")
	}
	return f
}

// Algorithm resolves -alg through the shared core.ByName registry.
func (f *Flags) Algorithm() (core.Algorithm, error) {
	name := "full"
	if f.Alg != nil {
		name = *f.Alg
	}
	return core.ByName(name)
}

// Desc assembles the serializable sweep descriptor from the registered
// flags — the exact struct cmd/verify and cmd/sweepd previously built
// by hand in three places. Unregistered flags contribute their
// SpecDesc zero value (which Normalize defaults).
func (f *Flags) Desc() sweep.SpecDesc {
	d := sweep.SpecDesc{}
	if f.N != nil {
		d.N = *f.N
	}
	if f.Alg != nil {
		d.Alg = *f.Alg
	}
	if f.Sched != nil {
		d.Sched = *f.Sched
	}
	if f.Seeds != nil {
		d.Seeds = *f.Seeds
	}
	if f.VisRange != nil {
		d.VisRange = *f.VisRange
	}
	if f.MaxRounds != nil {
		d.MaxRounds = *f.MaxRounds
	}
	return d
}

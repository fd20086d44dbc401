// Exhaustive: reproduce the paper's Theorem 2 evaluation — the algorithm
// gathers from all 3652 connected initial configurations — and print the
// ablation table showing what each reconstruction layer contributes.
package main

import (
	"context"
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/sweep"
)

// verify sweeps every connected seven-robot pattern under FSYNC.
func verify(alg core.Algorithm) *sweep.Report {
	rep, err := sweep.Run(context.Background(), sweep.Spec{Alg: alg})
	if err != nil {
		log.Fatal(err)
	}
	return rep
}

func main() {
	fmt.Println("Theorem 2 (paper §IV-B): gathering from all connected initial")
	fmt.Println("configurations of seven robots, FSYNC, visibility range 2.")
	fmt.Println()

	variants := []core.Variant{
		core.VariantPaper,
		core.VariantNoReconstruction,
		core.VariantNoTable,
		core.VariantFull,
	}
	fmt.Printf("%-28s %9s %8s %10s\n", "variant", "gathered", "of", "max-rounds")
	for _, v := range variants {
		rep := verify(core.Gatherer{Variant: v})
		fmt.Printf("%-28s %9d %8d %10d\n", rep.Algorithm, rep.Gathered(), rep.Total, rep.MaxRounds)
	}

	fmt.Println()
	full := verify(core.Gatherer{})
	if full.AllGathered() {
		fmt.Println("PAPER CLAIM REPRODUCED:", full)
	} else {
		fmt.Println("MISMATCH:", full)
	}
}

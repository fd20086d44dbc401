// Command verdictgen regenerates the verdict service's precomputed
// table (internal/serve/verdicts.bin): for every connected pattern
// with n ≤ -max-n it computes the deterministic FSYNC outcome, the
// SSYNC robustness count over seeds 1..TableSchedules, and the exact
// solver-only defeasibility verdict, packs them into one Record per
// pattern, and writes the sorted records as a digest-checked
// internal/artifact file. The output is byte-deterministic at any
// -workers count (solver-only adversary verdicts are
// interleaving-independent), so CI can regenerate and byte-compare: a
// diff means the engines and the table disagree.
//
// Usage:
//
//	verdictgen [-max-n 8] [-workers 0] [-out internal/serve/verdicts.bin]
//
// With -out "" or "-" the artifact goes to stdout. The n = 8 adversary
// solve dominates the runtime (the E14 workload); -max-n 7 finishes in
// seconds and is what the routine fixed-point test recomputes.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"

	"repro/internal/artifact"
	"repro/internal/serve"
)

func main() {
	maxN := flag.Int("max-n", 8, "largest robot count to tabulate (min 1)")
	workers := flag.Int("workers", 0, "sweep/solver workers (0 = GOMAXPROCS)")
	out := flag.String("out", "internal/serve/verdicts.bin", "output file (\"\" or \"-\" for stdout)")
	flag.Parse()
	if *workers <= 0 {
		*workers = runtime.GOMAXPROCS(0)
	}

	data, err := serve.GenerateTable(context.Background(), 1, *maxN, *workers,
		func(format string, args ...any) { fmt.Fprintf(os.Stderr, format+"\n", args...) })
	if err != nil {
		fmt.Fprintf(os.Stderr, "verdictgen: %v\n", err)
		os.Exit(2)
	}
	if *out == "" || *out == "-" {
		os.Stdout.Write(data)
		return
	}
	err = artifact.WriteFile(*out, func(w io.Writer) error {
		_, err := w.Write(data)
		return err
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "verdictgen: %v\n", err)
		os.Exit(2)
	}
	fmt.Fprintf(os.Stderr, "verdictgen: wrote the n <= %d table (%d bytes) to %s\n", *maxN, len(data), *out)
}

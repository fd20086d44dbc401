// Command enumgen builds and verifies pattern-index artifacts: the
// canonical "key/v1" key list of a connected pattern space, persisted
// as a flat key array in an internal/artifact envelope. A distributed
// sweep hands the artifact to its workers (`sweepd run -index`,
// `sweepd serve -index`, `verify -index`) so each one seeks straight
// to its shard instead of re-enumerating the space.
//
//	enumgen -n 10 -o patterns-n10.phk        # build
//	enumgen -verify patterns-n10.phk         # re-verify an artifact
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/artifact"
	"repro/internal/enumerate"
)

func main() {
	var (
		n       = flag.Int("n", 0, fmt.Sprintf("robot count of the space to index (1..%d)", enumerate.MaxKeyN))
		out     = flag.String("o", "", "output path (build mode; required with -n)")
		workers = flag.Int("workers", 0, "enumeration workers (0 = all CPUs)")
		verify  = flag.String("verify", "", "load and fully verify an existing index instead of building")
	)
	flag.Parse()

	switch {
	case *verify != "":
		ix, err := enumerate.LoadIndex(*verify)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("%s: ok n=%d patterns=%d digest=%s\n", *verify, ix.N(), ix.Count(), ix.Digest())
	case *n > 0:
		if *out == "" {
			fatal(fmt.Errorf("enumgen: -n requires -o"))
		}
		ix, stats := enumerate.BuildIndex(*n, *workers)
		if *n < len(enumerate.KnownCounts) && ix.Count() != enumerate.KnownCounts[*n] {
			fatal(fmt.Errorf("enumgen: enumerated %d patterns for n=%d, published count is %d", ix.Count(), *n, enumerate.KnownCounts[*n]))
		}
		// Published atomically and synced: a killed build never leaves a
		// torn or empty artifact where a worker would load it.
		err := artifact.WriteFile(*out, func(w io.Writer) error {
			_, err := ix.WriteTo(w)
			return err
		})
		if err != nil {
			fatal(err)
		}
		// The search produces each pattern once, so it reports the
		// patterns of every size it visited rather than a dedup rate.
		fmt.Printf("%s: n=%d patterns=%d digest=%s searched=%d patterns_per_sec=%.0f\n",
			*out, ix.N(), ix.Count(), ix.Digest(), stats.Unique, stats.PatternsPerSec())
	default:
		flag.Usage()
		os.Exit(2)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(1)
}

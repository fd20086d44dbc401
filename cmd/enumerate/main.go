// Command enumerate counts the connected configurations of n robots on
// the triangular grid up to translation (fixed polyhexes) and prints the
// table the paper's "3652 patterns" figure comes from. Known reference
// counts (checked with a ✓) extend through n = 12. Every size
// enumerates on exact config.Key128 keys, which cover n ≤ 14
// (enumerate.MaxKeyN); larger sizes are refused with exit status 2.
//
// Usage:
//
//	enumerate [-n 7] [-print]
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/enumerate"
	"repro/internal/viz"
)

func main() {
	n := flag.Int("n", 7, "maximum configuration size")
	print := flag.Bool("print", false, "render every configuration of the largest size")
	flag.Parse()
	if *n < 1 || *n > enumerate.MaxKeyN {
		fmt.Fprintf(os.Stderr, "enumerate: -n %d outside [1, %d], the exact key envelope\n", *n, enumerate.MaxKeyN)
		os.Exit(2)
	}

	fmt.Println("size  connected patterns (up to translation)")
	for k := 1; k <= *n; k++ {
		count := enumerate.Count(k)
		marker := ""
		if k < len(enumerate.KnownCounts) && count == enumerate.KnownCounts[k] {
			marker = "  ✓"
		}
		fmt.Printf("%4d  %d%s\n", k, count, marker)
	}
	if *print {
		for i, c := range enumerate.Connected(*n) {
			fmt.Printf("\n#%d %s\n%s", i, c.Key(), viz.RenderSimple(c))
		}
	}
}

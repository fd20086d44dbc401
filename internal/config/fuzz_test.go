package config_test

import (
	"testing"

	"repro/internal/config"
	"repro/internal/grid"
	"repro/internal/serve"
)

// FuzzParseKey: ParseKey never panics, and every key it accepts names
// a pattern whose canonical Key() parses back to the same pattern.
// Seeds are fixture keys (the URL and whitespace forms included) and
// the first and last keys of every robot count in the verdict table.
func FuzzParseKey(f *testing.F) {
	for _, k := range []string{
		"",
		"0,0",
		"0,0;1,0;2,0;0,1;1,1;2,1;1,2",
		"0,0;1,0;2,0;3,0;4,0;5,0;6,0;7,0;8,0",
		" 3 , -2 ; 4,-2;3,-1 ",
		"0,0;0,0;1,0",
		"-5,7;-4,7",
		"1,2;3",
		"a,b",
		"9223372036854775807,0;-9223372036854775808,0",
	} {
		f.Add(k)
	}
	minN, maxN := serve.TableBounds()
	for n := minN; n <= maxN; n++ {
		lo, hi, ok := serve.TableRange(n)
		if !ok {
			continue
		}
		for _, i := range []int{lo, hi - 1} {
			key, _ := serve.TableEntry(i)
			c, err := config.FromKey128(key)
			if err != nil {
				f.Fatal(err)
			}
			f.Add(c.Key())
		}
	}
	f.Fuzz(func(t *testing.T, s string) {
		c, err := config.ParseKey(s)
		if err != nil {
			return
		}
		again, err := config.ParseKey(c.Key())
		if err != nil {
			t.Fatalf("ParseKey(%q) accepted, but its Key %q does not re-parse: %v", s, c.Key(), err)
		}
		if !again.SamePattern(c) || again.Key() != c.Key() {
			t.Fatalf("ParseKey(%q): Key %q re-parses to pattern %q", s, c.Key(), again.Key())
		}
	})
}

// FuzzFromKey128: the key decoder reads peer bytes (pattern-index
// artifacts, verdict-table entries), so for any two words it must
// either return an error or return a pattern whose Key128 is exactly
// the input — never panic. Seeds are the keys of lines in three
// directions and the hexagon for n ≤ 8, a widest-spread pair, and a
// few values outside the encoder's image.
func FuzzFromKey128(f *testing.F) {
	patterns := []config.Config{
		config.Hexagon(grid.Origin),
		config.New(grid.Origin, grid.Coord{Q: 15, R: -15}),
	}
	for n := 1; n <= 8; n++ {
		for _, d := range []grid.Direction{grid.E, grid.NE, grid.SE} {
			patterns = append(patterns, config.Line(grid.Origin, d, n))
		}
	}
	for _, c := range patterns {
		k, ok := config.Key128Nodes(c.Nodes())
		if !ok {
			f.Fatalf("seed %s has no exact key", c.Key())
		}
		f.Add(k.Hi, k.Lo)
	}
	f.Add(uint64(0), uint64(0))
	f.Add(uint64(1)<<60, uint64(0))
	f.Add(^uint64(0), ^uint64(0))
	f.Add(uint64(0), uint64(3)<<18|1<<14|15<<9|1<<5|14)
	f.Fuzz(func(t *testing.T, hi, lo uint64) {
		key := config.Key128{Hi: hi, Lo: lo}
		c, err := config.FromKey128(key)
		if err != nil {
			return
		}
		if again, ok := c.Key128(); !ok || again != key {
			t.Fatalf("FromKey128(%#x:%#x) = %s, whose Key128 is %#x:%#x (exact %v)", hi, lo, c.Key(), again.Hi, again.Lo, ok)
		}
	})
}

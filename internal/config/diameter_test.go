package config_test

import (
	"testing"

	"repro/internal/config"
	"repro/internal/enumerate"
)

// pairwiseDiameter is the definition Diameter's one-pass span must
// reproduce: the largest distance over every pair of nodes.
func pairwiseDiameter(c config.Config) int {
	nodes, d := c.Nodes(), 0
	for i := range nodes {
		for j := i + 1; j < len(nodes); j++ {
			d = max(d, nodes[i].Distance(nodes[j]))
		}
	}
	return d
}

// TestDiameterMatchesPairwise checks Diameter against the pairwise
// maximum over every connected pattern through n = 8 and every
// within(5, 2) pattern, whose nodes need not touch.
func TestDiameterMatchesPairwise(t *testing.T) {
	check := func(c config.Config) bool {
		if got, want := c.Diameter(), pairwiseDiameter(c); got != want {
			t.Fatalf("%s: Diameter %d, pairwise %d", c.Key(), got, want)
		}
		return true
	}
	check(config.Config{})
	for n := 1; n <= 8; n++ {
		for _, c := range enumerate.Connected(n) {
			check(c)
		}
	}
	enumerate.EachWithin(5, 2, check)
}

package config

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/grid"
)

func TestNewDeduplicatesAndSorts(t *testing.T) {
	c := New(grid.Coord{Q: 1, R: 0}, grid.Coord{Q: 0, R: 0}, grid.Coord{Q: 1, R: 0})
	if c.Len() != 2 {
		t.Fatalf("Len = %d, want 2", c.Len())
	}
	nodes := c.Nodes()
	if nodes[0] != (grid.Coord{Q: 0, R: 0}) || nodes[1] != (grid.Coord{Q: 1, R: 0}) {
		t.Fatalf("nodes not sorted: %v", nodes)
	}
}

func TestHas(t *testing.T) {
	c := Hexagon(grid.Origin)
	for _, v := range c.Nodes() {
		if !c.Has(v) {
			t.Errorf("Has(%v) = false for member", v)
		}
	}
	if c.Has(grid.Coord{Q: 5, R: 5}) {
		t.Error("Has reported a non-member")
	}
}

func TestHasMatchesSet(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 50; trial++ {
		var nodes []grid.Coord
		for i := 0; i < 7; i++ {
			nodes = append(nodes, grid.Coord{Q: rng.Intn(9) - 4, R: rng.Intn(9) - 4})
		}
		c := New(nodes...)
		set := c.Set()
		for q := -5; q <= 5; q++ {
			for r := -5; r <= 5; r++ {
				v := grid.Coord{Q: q, R: r}
				if c.Has(v) != set[v] {
					t.Fatalf("Has(%v)=%v but set says %v", v, c.Has(v), set[v])
				}
			}
		}
	}
}

func TestTranslateNormalize(t *testing.T) {
	c := Hexagon(grid.Coord{Q: 3, R: -2})
	d := c.Translate(grid.Coord{Q: -7, R: 4})
	if !c.SamePattern(d) {
		t.Error("translation changed the pattern")
	}
	if c.Equal(d) {
		t.Error("translation should change absolute positions")
	}
	if !c.Normalize().Equal(d.Normalize()) {
		t.Error("normalizations differ")
	}
	n := c.Normalize()
	if n.Nodes()[0] != grid.Origin {
		t.Errorf("normalized min node = %v, want origin", n.Nodes()[0])
	}
}

func TestKeyRoundTrip(t *testing.T) {
	c := Hexagon(grid.Coord{Q: 2, R: 2})
	got, err := ParseKey(c.Key())
	if err != nil {
		t.Fatal(err)
	}
	if !got.SamePattern(c) {
		t.Fatalf("round trip pattern mismatch: %v vs %v", got, c)
	}
}

func TestKeyTranslationInvariant(t *testing.T) {
	f := func(dq, dr int8) bool {
		c := Line(grid.Origin, grid.NE, 7)
		return c.Key() == c.Translate(grid.Coord{Q: int(dq), R: int(dr)}).Key()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestParseKeyErrors(t *testing.T) {
	for _, bad := range []string{"1", "a,b", "1,2;3", "1,2,3", "0,0;1073741824,0", "-1073741824,0"} {
		if _, err := ParseKey(bad); err == nil {
			t.Errorf("ParseKey(%q) accepted junk", bad)
		}
	}
	empty, err := ParseKey("")
	if err != nil || empty.Len() != 0 {
		t.Errorf("ParseKey empty = %v, %v", empty, err)
	}
}

func TestConnected(t *testing.T) {
	if !Hexagon(grid.Origin).Connected() {
		t.Error("hexagon not connected")
	}
	if !Line(grid.Origin, grid.E, 7).Connected() {
		t.Error("line not connected")
	}
	split := New(
		grid.Origin, grid.Coord{Q: 1, R: 0},
		grid.Coord{Q: 5, R: 0}, grid.Coord{Q: 6, R: 0},
	)
	if split.Connected() {
		t.Error("split configuration reported connected")
	}
	if !New().Connected() || !New(grid.Origin).Connected() {
		t.Error("trivial configurations must be connected")
	}
}

func TestGathered(t *testing.T) {
	hex := Hexagon(grid.Coord{Q: -1, R: 3})
	if !hex.Gathered() {
		t.Error("hexagon not recognized as gathered")
	}
	center, ok := hex.Center()
	if !ok || center != (grid.Coord{Q: -1, R: 3}) {
		t.Errorf("Center = %v, %v", center, ok)
	}
	if Line(grid.Origin, grid.E, 7).Gathered() {
		t.Error("line recognized as gathered")
	}
	if Hexagon(grid.Origin).Translate(grid.Coord{Q: 9, R: 9}).Gathered() != true {
		t.Error("translated hexagon not gathered")
	}
	// Six robots (no center) must not be gathered.
	six := New(grid.Origin.Ring(1)...)
	if six.Gathered() {
		t.Error("empty-center ring recognized as gathered")
	}
}

func TestGatheredIsMinimumDiameter(t *testing.T) {
	// The gathered hexagon has diameter 2; the paper defines gathering as
	// minimizing the maximum pairwise distance for seven robots.
	if d := Hexagon(grid.Origin).Diameter(); d != 2 {
		t.Fatalf("hexagon diameter = %d, want 2", d)
	}
	if d := Line(grid.Origin, grid.E, 7).Diameter(); d != 6 {
		t.Fatalf("line diameter = %d, want 6", d)
	}
}

func TestHexagonStructure(t *testing.T) {
	hex := Hexagon(grid.Origin)
	if hex.Len() != 7 {
		t.Fatalf("hexagon has %d nodes", hex.Len())
	}
	if !hex.Has(grid.Origin) {
		t.Fatal("hexagon missing center")
	}
	for _, d := range grid.Directions {
		if !hex.Has(grid.Origin.Step(d)) {
			t.Fatalf("hexagon missing %v neighbor", d)
		}
	}
}

func TestLine(t *testing.T) {
	l := Line(grid.Origin, grid.SE, 4)
	if l.Len() != 4 {
		t.Fatalf("line has %d nodes", l.Len())
	}
	if !l.Has(grid.Coord{Q: 3, R: -3}) {
		t.Error("line missing expected endpoint")
	}
	if l.Diameter() != 3 {
		t.Errorf("line diameter = %d", l.Diameter())
	}
}

func TestFromASCIIHexagon(t *testing.T) {
	c := MustFromASCII(`
 o o
o o o
 o o
`)
	if !c.Gathered() {
		t.Fatalf("parsed hexagon not gathered: %v", c)
	}
}

func TestFromASCIILineAndDiagonal(t *testing.T) {
	line := MustFromASCII(`o o o o o o o`)
	if !line.SamePattern(Line(grid.Origin, grid.E, 7)) {
		t.Errorf("parsed E-line mismatch: %v", line)
	}
	diag := MustFromASCII(`
o
 o
  o
`)
	if !diag.SamePattern(Line(grid.Origin, grid.SE, 3)) {
		t.Errorf("parsed SE diagonal mismatch: %v", diag)
	}
	up := MustFromASCII(`
  o
 o
o
`)
	if !up.SamePattern(Line(grid.Origin, grid.NE, 3)) {
		t.Errorf("parsed NE diagonal mismatch: %v", up)
	}
}

func TestFromASCIIIndentationIrrelevant(t *testing.T) {
	a := MustFromASCII("o o\n o")
	b := MustFromASCII("   o o\n    o")
	if !a.SamePattern(b) {
		t.Errorf("indentation changed pattern: %v vs %v", a, b)
	}
}

func TestFromASCIIErrors(t *testing.T) {
	if _, err := FromASCII("oo"); err == nil {
		t.Error("parity violation accepted (adjacent columns same row)")
	}
	if _, err := FromASCII("o\no"); err == nil {
		t.Error("parity violation accepted (same column adjacent rows)")
	}
	if _, err := FromASCII("..."); err == nil {
		t.Error("empty picture accepted")
	}
	if _, err := FromASCII("x"); err == nil {
		t.Error("junk character accepted")
	}
}

func TestFromASCIIDotsArePadding(t *testing.T) {
	a := MustFromASCII("o . o\n . o")
	b := MustFromASCII("o   o\n   o")
	if !a.SamePattern(b) {
		t.Errorf("dot padding changed pattern: %v vs %v", a, b)
	}
}

func TestDiameterTranslationInvariant(t *testing.T) {
	f := func(dq, dr int8) bool {
		c := Hexagon(grid.Origin)
		return c.Diameter() == c.Translate(grid.Coord{Q: int(dq), R: int(dr)}).Diameter()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestStringRendersSorted(t *testing.T) {
	c := New(grid.Coord{Q: 1, R: 0}, grid.Origin)
	if got := c.String(); got != "{(0,0) (1,0)}" {
		t.Errorf("String = %q", got)
	}
}

func randomPattern(rng *rand.Rand, n, spread int) Config {
	nodes := make([]grid.Coord, n)
	for i := range nodes {
		nodes[i] = grid.Coord{Q: rng.Intn(2*spread) - spread, R: rng.Intn(2*spread) - spread}
	}
	return New(nodes...)
}

func TestCompareOrdersConfigs(t *testing.T) {
	a := New(grid.Origin)
	b := New(grid.Origin, grid.Coord{Q: 1, R: 0})
	c := New(grid.Origin, grid.Coord{Q: 1, R: 1})
	if a.Compare(b) >= 0 || b.Compare(c) >= 0 || c.Compare(b) <= 0 {
		t.Fatal("Compare ordering broken")
	}
	if b.Compare(b) != 0 {
		t.Fatal("Compare not reflexive")
	}
}

package config

import (
	"math/rand"
	"testing"

	"repro/internal/grid"
)

// TestKey128AgreesWithKey is the contract: on exactly-encodable
// patterns, Key128 equality must coincide with string-Key equality — no
// collisions, no splits.
func TestKey128AgreesWithKey(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	byKey128 := map[Key128]string{}
	byKey := map[string]Key128{}
	for i := 0; i < 5000; i++ {
		c := randomPattern(rng, 1+rng.Intn(14), 7)
		k128, exact := c.Key128()
		if !exact {
			t.Fatalf("small pattern unexpectedly inexact: %s", c.Key())
		}
		ks := c.Key()
		if prev, ok := byKey128[k128]; ok && prev != ks {
			t.Fatalf("Key128 collision: %q and %q share %#x:%#x", prev, ks, k128.Hi, k128.Lo)
		}
		if prev, ok := byKey[ks]; ok && prev != k128 {
			t.Fatalf("one pattern, two Key128 values: %q -> %v and %v", ks, prev, k128)
		}
		byKey128[k128] = ks
		byKey[ks] = k128
	}
}

func TestKey128TranslationInvariant(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for i := 0; i < 500; i++ {
		c := randomPattern(rng, 1+rng.Intn(14), 7)
		d := grid.Coord{Q: rng.Intn(40) - 20, R: rng.Intn(40) - 20}
		k1, ok1 := c.Key128()
		k2, ok2 := c.Translate(d).Key128()
		if ok1 != ok2 || k1 != k2 {
			t.Fatalf("translation changed key: %v/%v vs %v/%v for %s", k1, ok1, k2, ok2, c.Key())
		}
	}
}

func TestKey128FallsBackOutsideEnvelope(t *testing.T) {
	if _, exact := Line(grid.Origin, grid.E, 8).Key128(); !exact {
		t.Fatal("8-node pattern not exact under Key128")
	}
	if _, exact := Line(grid.Origin, grid.E, 14).Key128(); !exact {
		t.Fatal("14-node pattern not exact under Key128")
	}
	if _, exact := Line(grid.Origin, grid.E, 15).Key128(); exact {
		t.Fatal("15-node pattern claimed exact")
	}
	wide := New(grid.Origin, grid.Coord{Q: 16, R: 0})
	if _, exact := wide.Key128(); exact {
		t.Fatal("spread-16 pattern claimed exact")
	}
	if k, exact := (Config{}).Key128(); !exact || k != (Key128{}) {
		t.Fatalf("empty pattern: key %v exact %v", k, exact)
	}
}

// TestKey128HighWordUsed checks wide patterns genuinely spill into the
// high word — the encoding is 128-bit, not a truncated 64-bit one.
func TestKey128HighWordUsed(t *testing.T) {
	k, exact := Line(grid.Origin, grid.E, 9).Key128()
	if !exact {
		t.Fatal("9-node line not exact")
	}
	if k.Hi == 0 {
		t.Fatalf("9-node line (8·9+4 = 76 bits) left the high word empty: %#x:%#x", k.Hi, k.Lo)
	}
}

// TestWithPhase: phase 0 keeps the key, every phase of the 7-bit field
// gives a distinct exact key with the pattern bits intact, and phases
// outside it report no exact key.
func TestWithPhase(t *testing.T) {
	base, _ := New(grid.Origin, grid.Coord{Q: 1, R: 0}).Key128()
	if got, ok := base.WithPhase(0); !ok || got != base {
		t.Fatalf("WithPhase(0) = %v,%v; want the key unchanged", got, ok)
	}
	seen := map[Key128]int{base: 0}
	for ph := 1; ph < 1<<phaseBits; ph++ {
		k, ok := base.WithPhase(ph)
		if !ok {
			t.Fatalf("WithPhase(%d) reported no exact key", ph)
		}
		if prev, dup := seen[k]; dup {
			t.Fatalf("WithPhase(%d) collides with phase %d", ph, prev)
		}
		seen[k] = ph
		if k.Lo != base.Lo {
			t.Fatalf("WithPhase(%d) altered Lo", ph)
		}
	}
	for _, ph := range []int{-1, 1 << phaseBits} {
		if _, ok := base.WithPhase(ph); ok {
			t.Fatalf("WithPhase(%d) claimed an exact key", ph)
		}
	}
}

// TestWithPhaseDisjointAcrossPatterns checks the structural claim the
// folding relies on: no phase of one pattern's key equals any phase of
// another's, because exact keys leave the phase bits zero — the widest
// MaxKeyNodes-node keys included.
func TestWithPhaseDisjointAcrossPatterns(t *testing.T) {
	var keys []Key128
	for _, c := range []Config{
		New(grid.Origin, grid.Coord{Q: 1, R: 0}),
		New(grid.Origin, grid.Coord{Q: 1, R: 1}),
		Line(grid.Origin, grid.E, MaxKeyNodes),
		Line(grid.Origin, grid.SE, MaxKeyNodes),
	} {
		k, ok := c.Key128()
		if !ok {
			t.Fatalf("%s has no exact key", c.Key())
		}
		if k.Hi>>phaseShift != 0 {
			t.Fatalf("%s uses the phase bits: %#x", c.Key(), k.Hi)
		}
		keys = append(keys, k)
	}
	for i, a := range keys {
		for _, b := range keys[i+1:] {
			for pa := 0; pa <= 8; pa++ {
				for pb := 0; pb <= 8; pb++ {
					ka, _ := a.WithPhase(pa)
					kb, _ := b.WithPhase(pb)
					if ka == kb {
						t.Fatalf("phase fold collides: %v phase %d == %v phase %d", a, pa, b, pb)
					}
				}
			}
		}
	}
}

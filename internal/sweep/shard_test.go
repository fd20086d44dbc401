package sweep_test

// Sharding primitives: Partition must tile any source exactly, Range
// must survive its textual and JSON renderings, a sharded source must
// enumerate precisely the window it names, and SpecDesc — the
// serialized sweep description the distributed testbed ships to
// workers — must normalize, validate, and digest deterministically.

import (
	"encoding/json"
	"testing"

	"repro/internal/config"
	"repro/internal/enumerate"
	"repro/internal/sweep"
)

func TestPartitionTilesExactly(t *testing.T) {
	for _, tc := range []struct{ total, shards int }{
		{1, 1}, {10, 1}, {10, 3}, {10, 10}, {10, 17}, {186, 7}, {16926, 12}, {5, 5}, {7, 2},
	} {
		plan := sweep.Partition(tc.total, tc.shards)
		want := tc.shards
		if want > tc.total {
			want = tc.total
		}
		if len(plan) != want {
			t.Errorf("Partition(%d,%d): %d shards, want %d", tc.total, tc.shards, len(plan), want)
		}
		lo := 0
		for _, r := range plan {
			if r.Lo != lo || r.Hi <= r.Lo {
				t.Fatalf("Partition(%d,%d): %v does not tile (at %d)", tc.total, tc.shards, plan, lo)
			}
			if !r.Valid(tc.total) {
				t.Fatalf("Partition(%d,%d): shard %s invalid for total %d", tc.total, tc.shards, r, tc.total)
			}
			lo = r.Hi
		}
		if lo != tc.total {
			t.Fatalf("Partition(%d,%d): covers %d of %d", tc.total, tc.shards, lo, tc.total)
		}
		// Near-equal: sizes differ by at most one.
		min, max := plan[0].Len(), plan[0].Len()
		for _, r := range plan {
			if l := r.Len(); l < min {
				min = l
			} else if l > max {
				max = l
			}
		}
		if max-min > 1 {
			t.Errorf("Partition(%d,%d): uneven shard sizes %d..%d", tc.total, tc.shards, min, max)
		}
	}
}

func TestRangeRoundTrip(t *testing.T) {
	r := sweep.Range{Lo: 3, Hi: 17}
	got, err := sweep.ParseRange(r.String())
	if err != nil || got != r {
		t.Fatalf("ParseRange(%q) = %v, %v", r.String(), got, err)
	}
	data, err := json.Marshal(r)
	if err != nil || string(data) != "[3,17]" {
		t.Fatalf("Marshal(%v) = %s, %v", r, data, err)
	}
	var back sweep.Range
	if err := json.Unmarshal(data, &back); err != nil || back != r {
		t.Fatalf("Unmarshal(%s) = %v, %v", data, back, err)
	}
	for _, bad := range []string{"", "3", "3:", ":7", "7:3", "3:3", "-1:4", "a:b"} {
		if _, err := sweep.ParseRange(bad); err == nil {
			t.Errorf("ParseRange(%q) accepted", bad)
		}
	}
}

func TestShardSourceWindow(t *testing.T) {
	full := sweep.Connected(6)
	all := enumerate.Connected(6)
	r := sweep.Range{Lo: 10, Hi: 25}
	shard := sweep.Shard(full, r)
	if shard.Count() != r.Len() {
		t.Fatalf("shard count %d, want %d", shard.Count(), r.Len())
	}
	var keys []string
	shard.Each(func(idx int, c config.Config) bool {
		if idx != len(keys) {
			t.Fatalf("shard re-index: got %d, want %d", idx, len(keys))
		}
		keys = append(keys, c.Key())
		return true
	})
	if len(keys) != r.Len() {
		t.Fatalf("enumerated %d patterns, want %d", len(keys), r.Len())
	}
	for k, key := range keys {
		if want := all[r.Lo+k].Key(); key != want {
			t.Fatalf("shard pattern %d is %s, want global pattern %d (%s)", k, key, r.Lo+k, want)
		}
	}
}

func TestSpecDescDigestAndValidate(t *testing.T) {
	d := sweep.SpecDesc{N: 8}
	d2 := sweep.SpecDesc{Version: sweep.SpecDescVersion, N: 8, Alg: "full", Sched: "fsync", Seeds: 1, VisRange: 1, Order: sweep.OrderKeyV1}
	if d.Digest() != d2.Digest() {
		t.Fatal("normalization-equal descs digest differently")
	}
	if d.Digest() == (sweep.SpecDesc{N: 7}).Digest() {
		t.Fatal("distinct descs share a digest")
	}
	for _, bad := range badSpecDescs {
		b := bad
		b.Normalize()
		if err := b.Validate(); err == nil {
			t.Errorf("Validate accepted %+v", bad)
		}
	}
	good := sweep.SpecDesc{N: 6, Sched: "ssync", Seeds: 4}
	good.Normalize()
	if err := good.Validate(); err != nil {
		t.Fatalf("Validate rejected a good desc: %v", err)
	}
	spec, err := good.Spec()
	if err != nil {
		t.Fatal(err)
	}
	if spec.Source.Count() == 0 || spec.Scheduler == nil || len(spec.Seeds) != 4 {
		t.Fatal("SpecDesc.Spec did not materialize source/scheduler/seeds")
	}
}

// badSpecDescs are descriptors Validate must refuse; FuzzSpecDesc
// seeds from them too.
var badSpecDescs = []sweep.SpecDesc{
	{N: 6, Sched: "adv"},
	{N: 6, Alg: "no-such-alg"},
	{N: 6, Version: 99},
	// A version-1 artifact predates the Order declaration, and a
	// version-2 one indexes relaxed shards in the old order; this
	// binary must refuse both loudly rather than guess.
	{N: 6, Version: 1},
	{N: 6, Version: 2, VisRange: 2},
	{N: 6, Order: "legacy"},
	// Past the exact key envelope, or past the largest enumerable
	// range: refused before anything enumerates.
	{N: enumerate.MaxKeyN + 1},
	{N: 7, VisRange: enumerate.MaxVisRange + 1},
	{N: 7, VisRange: 1000000},
	// Past MaxSeeds: refused before the seed list is built.
	{N: 7, Seeds: sweep.MaxSeeds + 1},
	{N: 7, Seeds: 1 << 40},
}

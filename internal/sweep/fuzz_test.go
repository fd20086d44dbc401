package sweep_test

import (
	"encoding/json"
	"testing"

	"repro/internal/sweep"
)

// FuzzSpecDesc: sweep descriptors arrive as JSON from peers (POST
// /sweep, shard headers, checkpoints). Decoding, Normalize and Validate
// must never panic; a descriptor that validates must build its Spec
// (without enumerating: Spec is lazy, and Meta, which counts the
// source, is not called), and every decoded descriptor's Digest must
// survive a JSON round trip. Seeds are TestSpecDescDigestAndValidate's
// rows and the descriptors the experiments run.
func FuzzSpecDesc(f *testing.F) {
	descs := append([]sweep.SpecDesc{
		{},
		{N: 8},
		{N: 6, Sched: "ssync", Seeds: 4},
		{N: 7, Sched: "ssync", Seeds: 32},
		{N: 8, Sched: "cent"},
		{N: 7, VisRange: 2},
		{N: 10, MaxRounds: 99},
	}, badSpecDescs...)
	for _, d := range descs {
		data, err := json.Marshal(d)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Add([]byte(`{"n":7,"seeds":1099511627776}`))
	f.Add([]byte(`{"n":-1,"range":-5,"seeds":-3,"max_rounds":-1}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		var d sweep.SpecDesc
		if json.Unmarshal(data, &d) != nil {
			return
		}
		digest := d.Digest()
		enc, err := json.Marshal(d)
		if err != nil {
			t.Fatalf("re-encoding %+v: %v", d, err)
		}
		var back sweep.SpecDesc
		if err := json.Unmarshal(enc, &back); err != nil {
			t.Fatalf("decoding re-encoded %s: %v", enc, err)
		}
		if back.Digest() != digest {
			t.Fatalf("digest changed across a JSON round trip: %+v vs %+v", d, back)
		}
		d.Normalize()
		if d.Validate() != nil {
			return
		}
		spec, err := d.Spec()
		if err != nil {
			t.Fatalf("valid descriptor %+v: Spec: %v", d, err)
		}
		if spec.N != d.N || len(spec.Seeds) != d.Seeds || spec.Source == nil {
			t.Fatalf("valid descriptor %+v built Spec N=%d, %d seeds", d, spec.N, len(spec.Seeds))
		}
	})
}

package enumerate

import (
	"bytes"
	"encoding/binary"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/artifact"
	"repro/internal/config"
)

// TestIndexRoundTrip pins the artifact contract: write → load is the
// identity, the digest survives, and every loaded key decodes to the
// same pattern the live enumeration yields at the same position.
func TestIndexRoundTrip(t *testing.T) {
	ix, stats := BuildIndex(7, 1)
	if ix.Count() != KnownCounts[7] || stats.Patterns != KnownCounts[7] {
		t.Fatalf("built %d keys, want %d", ix.Count(), KnownCounts[7])
	}
	path := filepath.Join(t.TempDir(), "n7.phk")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	written, err := ix.WriteTo(f)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if fi, _ := os.Stat(path); fi.Size() != written {
		t.Fatalf("WriteTo reported %d bytes, file has %d", written, fi.Size())
	}
	loaded, err := LoadIndex(path)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.N() != 7 || loaded.Count() != ix.Count() || loaded.Digest() != ix.Digest() {
		t.Fatalf("loaded n=%d count=%d digest=%s, want n=7 count=%d digest=%s",
			loaded.N(), loaded.Count(), loaded.Digest(), ix.Count(), ix.Digest())
	}
	want := Connected(7)
	for i := range want {
		if loaded.Key(i) != ix.Key(i) {
			t.Fatalf("key %d changed across the file round trip", i)
		}
		if loaded.At(i).Compare(want[i]) != 0 {
			t.Fatalf("pattern %d decodes to %s, enumeration has %s", i, loaded.At(i).Key(), want[i].Key())
		}
	}
}

// TestIndexRejectsCorruption: every way a file can lie — wrong magic,
// skewed versions, truncation, a count far beyond the payload, a
// flipped payload bit, a re-ordered payload — must fail at load, not
// downstream in a sweep.
func TestIndexRejectsCorruption(t *testing.T) {
	ix, _ := BuildIndex(5, 1)
	var buf bytes.Buffer
	if _, err := ix.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()

	corrupt := func(name string, mutate func(b []byte) []byte) {
		b := mutate(append([]byte(nil), good...))
		if _, err := ReadIndex(bytes.NewReader(b)); err == nil {
			t.Errorf("%s: loader accepted a corrupt index", name)
		}
	}
	corrupt("bad magic", func(b []byte) []byte { b[0] ^= 0xFF; return b })
	corrupt("format version skew", func(b []byte) []byte { b[8]++; return b })
	corrupt("order version skew", func(b []byte) []byte { b[12]++; return b })
	corrupt("zero count", func(b []byte) []byte { b[24], b[25] = 0, 0; return b })
	corrupt("truncated payload", func(b []byte) []byte { return b[:len(b)-8] })
	// A count far beyond the payload (1 TiB of keys, in a 3 KB file)
	// must end as a clean truncation error, not a huge allocation.
	lying := append([]byte(nil), good...)
	binary.LittleEndian.PutUint64(lying[24:32], 1<<36)
	if _, err := ReadIndex(bytes.NewReader(lying)); err == nil || !strings.Contains(err.Error(), "truncated") {
		t.Errorf("count far beyond the payload: got %v, want a truncation error", err)
	}
	corrupt("flipped payload bit", func(b []byte) []byte { b[artifact.HeaderSize+3] ^= 1; return b })
	corrupt("swapped records", func(b []byte) []byte {
		lo := artifact.HeaderSize
		for i := 0; i < 16; i++ {
			b[lo+i], b[lo+16+i] = b[lo+16+i], b[lo+i]
		}
		return b
	})
	corrupt("n out of envelope", func(b []byte) []byte { b[16] = MaxKeyN + 1; return b })
}

// TestIndexSeek is the tentpole's O(1)-seek property in miniature: any
// [lo, hi) slice of the index equals the same slice of the live
// enumeration, with no call touching indices outside the window.
func TestIndexSeek(t *testing.T) {
	ix, _ := BuildIndex(6, 1)
	want := Connected(6)
	for _, r := range [][2]int{{0, 5}, {100, 200}, {len(want) - 3, len(want)}} {
		for i := r[0]; i < r[1]; i++ {
			if ix.At(i).Compare(want[i]) != 0 {
				t.Fatalf("seek window [%d,%d): pattern %d differs", r[0], r[1], i)
			}
		}
	}
	var k config.Key128
	for i := 0; i < ix.Count(); i++ {
		if k.Compare(ix.Key(i)) >= 0 && i > 0 {
			t.Fatalf("index keys not strictly ascending at %d", i)
		}
		k = ix.Key(i)
	}
}

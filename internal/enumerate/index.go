package enumerate

import (
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"io"
	"os"

	"repro/internal/artifact"
	"repro/internal/config"
)

// A pattern index is the enumeration made seekable: the canonical
// ("key/v1") key list of one connected pattern space, persisted as a
// flat array of packed keys in an internal/artifact envelope. A
// distributed worker that loads the index seeks to its shard's
// [lo, hi) source range in O(1) — slice the key array — instead of
// re-enumerating the whole space per worker, per shard retry, per
// resume, which was the dominant startup cost of dist sweeps at n ≥ 9.
// cmd/enumgen builds the artifact; sweep.ConnectedIndex serves it as a
// sweep source bit-identical to the in-memory enumeration.

// IndexKind is the pattern index's artifact format (version 2: the
// first on the shared envelope). Its format parameters are the source
// order version (indexOrderKeyV1) and n; its payload is a bare,
// 64-byte-aligned array of 16-byte records, config.Key128 as (Hi, Lo)
// little-endian, in ascending key order — mmap-friendly, though the
// loader simply reads it (the largest tabulated space, n = 12, is
// 131 MB).
var IndexKind = artifact.Kind{Magic: "PHXKIDX1", Version: 2, RecordSize: 16}

// indexOrderKeyV1 names the canonical source order the key array is
// sorted in: ascending packed-key order, the order sweep.OrderKeyV1
// declares and config.Compare agrees with.
const indexOrderKeyV1 = 1

// Index is a loaded (or freshly built) pattern index: the canonical
// key list of the connected n-robot space.
type Index struct {
	n      int
	keys   []byte // the artifact payload
	digest [32]byte
}

// BuildIndex enumerates the connected n-robot space key-natively
// (workers ≤ 0 = GOMAXPROCS) and returns its index plus the
// enumeration's Stats.
func BuildIndex(n, workers int) (*Index, Stats) {
	keys, stats := KeysStats(n, workers)
	b := make([]byte, 16*len(keys))
	for i, k := range keys {
		binary.LittleEndian.PutUint64(b[16*i:], k.Hi)
		binary.LittleEndian.PutUint64(b[16*i+8:], k.Lo)
	}
	return &Index{n: n, keys: b, digest: artifact.Sum(b)}, stats
}

// N returns the robot count of the indexed space.
func (ix *Index) N() int { return ix.n }

// Count returns the number of patterns in the indexed space.
func (ix *Index) Count() int { return len(ix.keys) / 16 }

// Key returns the i-th pattern's packed key.
func (ix *Index) Key(i int) config.Key128 {
	return config.Key128{Hi: binary.LittleEndian.Uint64(ix.keys[16*i:]), Lo: binary.LittleEndian.Uint64(ix.keys[16*i+8:])}
}

// At decodes the i-th pattern in canonical order.
func (ix *Index) At(i int) config.Config {
	c, err := config.FromKey128(ix.Key(i))
	if err != nil {
		panic("enumerate: corrupt index key: " + err.Error())
	}
	return c
}

// Digest returns the hex sha256 of the key payload — the identity the
// loader verifies and the tools print.
func (ix *Index) Digest() string { return hex.EncodeToString(ix.digest[:]) }

// WriteTo serializes the index in its artifact format.
func (ix *Index) WriteTo(w io.Writer) (int64, error) {
	return artifact.Write(w, IndexKind, [2]uint32{indexOrderKeyV1, uint32(ix.n)}, ix.keys)
}

// ReadIndex reads and fully verifies an index stream: the envelope
// (magic, format version, count, payload digest), then the order
// version, n and ascending key order. A truncated, bit-flipped, or
// mis-sorted file fails here, never downstream in a sweep.
func ReadIndex(r io.Reader) (*Index, error) {
	b, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("enumerate: index: %w", err)
	}
	return parseIndex(b)
}

// LoadIndex reads and verifies an index file.
func LoadIndex(path string) (*Index, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	ix, err := parseIndex(b)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return ix, nil
}

func parseIndex(b []byte) (*Index, error) {
	h, payload, err := artifact.Read(b, IndexKind)
	if err != nil {
		return nil, fmt.Errorf("enumerate: index: %w", err)
	}
	if v := h.Params[0]; v != indexOrderKeyV1 {
		return nil, fmt.Errorf("enumerate: index source order %d, this binary speaks %d (key/v1)", v, indexOrderKeyV1)
	}
	n := int(h.Params[1])
	if n < 1 || n > MaxKeyN {
		return nil, fmt.Errorf("enumerate: index n = %d outside the exact key envelope", n)
	}
	ix := &Index{n: n, keys: payload, digest: h.Sum}
	for i := 1; i < ix.Count(); i++ {
		if ix.Key(i-1).Compare(ix.Key(i)) >= 0 {
			return nil, fmt.Errorf("enumerate: index keys out of canonical order at %d", i)
		}
	}
	return ix, nil
}

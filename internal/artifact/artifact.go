// Package artifact is the repo's one durable, digest-checked file
// format, shared by the pattern index (internal/enumerate), the verdict
// table (internal/serve) and the sweep checkpoint (internal/dist).
//
// Layout (little-endian, a fixed 64-byte header, then the payload):
//
//	offset  size  field
//	0       8     magic — names the artifact kind
//	8       4     format version of that kind
//	12      4     format parameter 0 (kind-specific)
//	16      4     format parameter 1 (kind-specific)
//	20      4     record size in bytes
//	24      8     record count (never zero)
//	32      32    sha256 of the payload
//	64      record size · count  payload
//
// Read checks everything before it trusts anything: the magic, version
// and record size must be the kind's, the payload exactly count records
// with no trailing bytes, and its digest must match. It reads bytes
// already in memory and allocates nothing by the header's count, so a
// header that lies about its count ends in a "truncated" error, not a
// huge allocation.
package artifact

import (
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
)

// HeaderSize is the byte length of the envelope header.
const HeaderSize = 64

// maxPayload bounds the payload size a header may declare (1 TiB).
const maxPayload = 1 << 40

// Kind identifies one artifact format.
type Kind struct {
	Magic      string // exactly 8 bytes
	Version    uint32
	RecordSize uint32
}

// Header is what a verified read reports besides the payload.
type Header struct {
	Params [2]uint32 // kind-specific format parameters
	Count  uint64    // number of records
	Sum    [32]byte  // sha256 of the payload
}

// Sum returns the digest Write records for payload.
func Sum(payload []byte) [32]byte { return sha256.Sum256(payload) }

// Write writes payload, a non-empty whole number of k.RecordSize
// records, in k's envelope and returns the number of bytes written.
func Write(w io.Writer, k Kind, params [2]uint32, payload []byte) (int64, error) {
	if len(k.Magic) != 8 || k.RecordSize == 0 || len(payload) == 0 || len(payload)%int(k.RecordSize) != 0 {
		return 0, fmt.Errorf("artifact: %q: %d bytes is not a non-empty whole number of %d-byte records",
			k.Magic, len(payload), k.RecordSize)
	}
	head := make([]byte, HeaderSize)
	copy(head, k.Magic)
	binary.LittleEndian.PutUint32(head[8:], k.Version)
	binary.LittleEndian.PutUint32(head[12:], params[0])
	binary.LittleEndian.PutUint32(head[16:], params[1])
	binary.LittleEndian.PutUint32(head[20:], k.RecordSize)
	binary.LittleEndian.PutUint64(head[24:], uint64(len(payload))/uint64(k.RecordSize))
	sum := Sum(payload)
	copy(head[32:], sum[:])
	n, err := w.Write(head)
	if err == nil {
		var m int
		m, err = w.Write(payload)
		n += m
	}
	return int64(n), err
}

// Read verifies an artifact of kind k held in b — a whole file, or an
// embedded one — and returns its header and payload, which aliases b.
func Read(b []byte, k Kind) (Header, []byte, error) {
	if len(b) < HeaderSize {
		return Header{}, nil, fmt.Errorf("artifact: %s header truncated at %d bytes", k.Magic, len(b))
	}
	h, size, err := decodeHeader(b, k)
	if err != nil {
		return Header{}, nil, err
	}
	switch payload := b[HeaderSize:]; {
	case len(payload) < size:
		return Header{}, nil, fmt.Errorf("artifact: %s payload truncated at %d of %d bytes", k.Magic, len(payload), size)
	case len(payload) > size:
		return Header{}, nil, fmt.Errorf("artifact: %s has trailing bytes after its payload", k.Magic)
	case Sum(payload) != h.Sum:
		return Header{}, nil, fmt.Errorf("artifact: %s payload digest mismatch", k.Magic)
	default:
		return h, payload, nil
	}
}

// decodeHeader checks a header against k and returns it with the
// payload size it declares.
func decodeHeader(b []byte, k Kind) (Header, int, error) {
	if string(b[:8]) != k.Magic {
		return Header{}, 0, fmt.Errorf("artifact: not a %s file (bad magic)", k.Magic)
	}
	if v := binary.LittleEndian.Uint32(b[8:]); v != k.Version {
		return Header{}, 0, fmt.Errorf("artifact: %s format version %d, this binary speaks %d", k.Magic, v, k.Version)
	}
	if rs := binary.LittleEndian.Uint32(b[20:]); rs != k.RecordSize {
		return Header{}, 0, fmt.Errorf("artifact: %s record size %d, want %d", k.Magic, rs, k.RecordSize)
	}
	h := Header{
		Params: [2]uint32{binary.LittleEndian.Uint32(b[12:]), binary.LittleEndian.Uint32(b[16:])},
		Count:  binary.LittleEndian.Uint64(b[24:]),
	}
	copy(h.Sum[:], b[32:HeaderSize])
	if h.Count == 0 || h.Count > maxPayload/uint64(k.RecordSize) {
		return Header{}, 0, fmt.Errorf("artifact: %s implausible record count %d", k.Magic, h.Count)
	}
	return h, int(h.Count) * int(k.RecordSize), nil
}

// WriteFile publishes a file atomically: write fills a temp file in the
// same directory, which is synced to stable storage and then renamed
// over path, and the directory is synced so the rename itself survives
// a crash. A process killed mid-write leaves the old file or the new
// one, never a torn or empty one.
func WriteFile(path string, write func(io.Writer) error) error {
	tmp, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".tmp*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	// Operands run left to right: write, make readable, sync, close.
	if err := errors.Join(write(tmp), tmp.Chmod(0o644), tmp.Sync(), tmp.Close()); err != nil {
		return err
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return err
	}
	dir, err := os.Open(filepath.Dir(path))
	if err != nil {
		return err
	}
	return errors.Join(dir.Sync(), dir.Close())
}

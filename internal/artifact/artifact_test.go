package artifact

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var testKind = Kind{Magic: "PHXTEST1", Version: 3, RecordSize: 8}

func encode(t *testing.T, k Kind, params [2]uint32, payload []byte) []byte {
	t.Helper()
	var b bytes.Buffer
	n, err := Write(&b, k, params, payload)
	if err != nil {
		t.Fatal(err)
	}
	if n != int64(b.Len()) || n != int64(HeaderSize+len(payload)) {
		t.Fatalf("Write reported %d bytes, wrote %d", n, b.Len())
	}
	return b.Bytes()
}

func TestRoundTrip(t *testing.T) {
	payload := bytes.Repeat([]byte("0123456789abcdef"), 100)
	b := encode(t, testKind, [2]uint32{7, 9}, payload)
	h, got, err := Read(b, testKind)
	if err != nil {
		t.Fatal(err)
	}
	if h.Params != [2]uint32{7, 9} || h.Count != 200 || h.Sum != Sum(payload) {
		t.Fatalf("header %+v", h)
	}
	if !bytes.Equal(got, payload) {
		t.Fatal("payload changed across the round trip")
	}
}

// TestRejectsCorruption is the envelope's corruption matrix: every way
// a file can lie fails at read.
func TestRejectsCorruption(t *testing.T) {
	good := encode(t, testKind, [2]uint32{1, 2}, bytes.Repeat([]byte{0xA5}, 64))
	corrupt := func(name, want string, mutate func(b []byte) []byte) {
		t.Helper()
		b := mutate(append([]byte(nil), good...))
		_, _, err := Read(b, testKind)
		if err == nil {
			t.Errorf("%s: accepted", name)
		} else if !strings.Contains(err.Error(), want) {
			t.Errorf("%s: error %q does not mention %q", name, err, want)
		}
	}
	corrupt("bad magic", "bad magic", func(b []byte) []byte { b[0] ^= 0xFF; return b })
	corrupt("version skew", "version", func(b []byte) []byte { b[8]++; return b })
	corrupt("record size skew", "record size", func(b []byte) []byte { b[20]++; return b })
	corrupt("empty", "header truncated", func(b []byte) []byte { return nil })
	corrupt("truncated header", "header truncated", func(b []byte) []byte { return b[:HeaderSize-1] })
	corrupt("truncated payload", "truncated", func(b []byte) []byte { return b[:len(b)-1] })
	corrupt("trailing bytes", "trailing", func(b []byte) []byte { return append(b, 0) })
	corrupt("flipped payload bit", "digest", func(b []byte) []byte { b[HeaderSize+5] ^= 1; return b })
	corrupt("flipped digest bit", "digest", func(b []byte) []byte { b[40] ^= 1; return b })
	corrupt("zero count", "count", func(b []byte) []byte {
		binary.LittleEndian.PutUint64(b[24:32], 0)
		return b
	})
	// A count far beyond the payload ends as a truncation, with nothing
	// allocated by the claim.
	corrupt("oversized count", "truncated", func(b []byte) []byte {
		binary.LittleEndian.PutUint64(b[24:32], 1<<36)
		return b
	})
	corrupt("implausible count", "count", func(b []byte) []byte {
		binary.LittleEndian.PutUint64(b[24:32], 1<<60)
		return b
	})
}

func TestWriteRefusesMalformed(t *testing.T) {
	for name, c := range map[string]struct {
		k       Kind
		payload []byte
	}{
		"empty payload":  {testKind, nil},
		"partial record": {testKind, make([]byte, 12)},
		"short magic":    {Kind{Magic: "PHX", Version: 1, RecordSize: 1}, []byte{1}},
		"zero record":    {Kind{Magic: "PHXTEST1", Version: 1}, []byte{1}},
	} {
		if _, err := Write(io.Discard, c.k, [2]uint32{}, c.payload); err == nil {
			t.Errorf("%s: Write accepted it", name)
		}
	}
}

func TestWriteFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "a.bin")
	put := func(s string) error {
		return WriteFile(path, func(w io.Writer) error { _, err := io.WriteString(w, s); return err })
	}
	if err := put("first"); err != nil {
		t.Fatal(err)
	}
	if err := put("second"); err != nil {
		t.Fatal(err)
	}
	// A failing writer leaves the published file untouched.
	boom := errors.New("boom")
	if err := WriteFile(path, func(w io.Writer) error { io.WriteString(w, "torn"); return boom }); !errors.Is(err, boom) {
		t.Fatalf("WriteFile returned %v, want the writer's error", err)
	}
	if got, err := os.ReadFile(path); err != nil || string(got) != "second" {
		t.Fatalf("file holds %q (%v), want %q", got, err, "second")
	}
	if fi, err := os.Stat(path); err != nil || fi.Mode().Perm() != 0o644 {
		t.Fatalf("file mode %v (%v), want 0644", fi.Mode(), err)
	}
	// No temp file is left behind, on success or failure.
	if ents, _ := os.ReadDir(dir); len(ents) != 1 {
		t.Fatalf("directory holds %d entries, want only a.bin", len(ents))
	}
}

package artifact_test

import (
	"bytes"
	"crypto/sha256"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/artifact"
	"repro/internal/dist"
	"repro/internal/enumerate"
	"repro/internal/serve"
)

// kinds are the artifact formats the repo reads.
var kinds = []artifact.Kind{enumerate.IndexKind, dist.CheckpointKind, serve.TableKind}

// FuzzRead: every input either fails to read or yields a payload whose
// digest verifies — and which re-encodes to exactly the input — and
// never a panic. Seeds are an n = 5 pattern index, a checkpoint, and
// the first rows of verdicts.bin.
func FuzzRead(f *testing.F) {
	var index bytes.Buffer
	ix, _ := enumerate.BuildIndex(5, 1)
	if _, err := ix.WriteTo(&index); err != nil {
		f.Fatal(err)
	}
	f.Add(index.Bytes())

	ck := filepath.Join(f.TempDir(), "ck")
	if err := dist.SaveCheckpoint(ck, &dist.Checkpoint{Version: dist.CheckpointVersion, Done: []int{0}}); err != nil {
		f.Fatal(err)
	}
	checkpoint, err := os.ReadFile(ck)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(checkpoint)

	table, err := os.ReadFile("../serve/verdicts.bin")
	if err != nil {
		f.Fatal(err)
	}
	h, payload, err := artifact.Read(table, serve.TableKind)
	if err != nil {
		f.Fatal(err)
	}
	var rows bytes.Buffer
	if _, err := artifact.Write(&rows, serve.TableKind, h.Params, payload[:15*serve.TableKind.RecordSize]); err != nil {
		f.Fatal(err)
	}
	f.Add(rows.Bytes())

	f.Fuzz(func(t *testing.T, data []byte) {
		for _, k := range kinds {
			h, payload, err := artifact.Read(data, k)
			if err != nil {
				continue
			}
			if sha256.Sum256(payload) != h.Sum || uint64(len(payload)) != h.Count*uint64(k.RecordSize) {
				t.Fatalf("%s: accepted header %+v over a %d-byte payload", k.Magic, h, len(payload))
			}
			var again bytes.Buffer
			if _, err := artifact.Write(&again, k, h.Params, payload); err != nil || !bytes.Equal(again.Bytes(), data) {
				t.Fatalf("%s: accepted input does not re-encode to itself (%v)", k.Magic, err)
			}
		}
	})
}

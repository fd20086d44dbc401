package dist

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"

	"repro/internal/artifact"
	"repro/internal/sweep"
)

// CheckpointVersion is the checkpoint file schema version.
const CheckpointVersion = 1

// Checkpoint is a distributed sweep's durable progress: the sweep
// descriptor, the fixed shard plan, which shards have been absorbed,
// and the aggregator snapshot those shards folded into. Resuming a
// preempted run is: load, re-queue every shard not in Done, keep
// absorbing into the restored aggregate — the completed shards are
// never re-executed and the final report is bit-identical to an
// uninterrupted run.
type Checkpoint struct {
	Version int            `json:"version"`
	Digest  string         `json:"spec_digest"`
	Spec    sweep.SpecDesc `json:"spec"`
	// Plan is the full shard plan, fixed at run start. Resume reuses it
	// verbatim — re-partitioning after a restart would split patterns
	// differently and make Done meaningless.
	Plan []sweep.Range `json:"plan"`
	// Done lists indices into Plan in absorption order.
	Done []int `json:"done"`
	// Agg is the aggregation of exactly the Done shards.
	Agg *sweep.AggState `json:"agg"`
}

// Remaining returns the plan indices not yet absorbed, in plan order.
func (c *Checkpoint) Remaining() []int {
	done := make(map[int]bool, len(c.Done))
	for _, i := range c.Done {
		done[i] = true
	}
	var out []int
	for i := range c.Plan {
		if !done[i] {
			out = append(out, i)
		}
	}
	return out
}

// Validate checks the checkpoint's internal consistency beyond what
// the integrity hash guarantees: version, spec digest, a plan that
// tiles the source without gap or overlap, in-range unique done
// indices, and an aggregate whose run count matches the done shards.
func (c *Checkpoint) Validate() error {
	if c.Version != CheckpointVersion {
		return fmt.Errorf("dist: checkpoint version %d, this binary speaks %d", c.Version, CheckpointVersion)
	}
	if err := c.Spec.Validate(); err != nil {
		return fmt.Errorf("dist: checkpoint spec: %w", err)
	}
	if got := c.Spec.Digest(); got != c.Digest {
		return fmt.Errorf("dist: checkpoint digest %.12s does not match its spec (%.12s)", c.Digest, got)
	}
	if len(c.Plan) == 0 {
		return fmt.Errorf("dist: checkpoint has an empty shard plan")
	}
	sorted := append([]sweep.Range(nil), c.Plan...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Lo < sorted[j].Lo })
	lo := 0
	for _, r := range sorted {
		if r.Lo != lo || r.Hi <= r.Lo {
			return fmt.Errorf("dist: checkpoint plan does not tile the source (gap or overlap at %d)", lo)
		}
		lo = r.Hi
	}
	seen := make(map[int]bool, len(c.Done))
	patternsDone := 0
	for _, i := range c.Done {
		if i < 0 || i >= len(c.Plan) || seen[i] {
			return fmt.Errorf("dist: checkpoint marks invalid or duplicate shard %d done", i)
		}
		seen[i] = true
		patternsDone += c.Plan[i].Len()
	}
	if c.Agg == nil {
		return fmt.Errorf("dist: checkpoint has no aggregate snapshot")
	}
	d := c.Spec
	d.Normalize()
	if c.Agg.Absorbed != patternsDone*d.Seeds {
		return fmt.Errorf("dist: checkpoint aggregate absorbed %d runs, done shards account for %d",
			c.Agg.Absorbed, patternsDone*d.Seeds)
	}
	return nil
}

// CheckpointKind is the checkpoint's artifact format: the Checkpoint's
// JSON as a payload of 1-byte records, so truncation and corruption
// are detected before a resume trusts a single byte of it.
var CheckpointKind = artifact.Kind{Magic: "PHXCKPT1", Version: 1, RecordSize: 1}

// SaveCheckpoint writes the checkpoint atomically (artifact.WriteFile):
// a coordinator killed mid-save leaves either the old checkpoint or the
// new one, never a torn file.
func SaveCheckpoint(path string, c *Checkpoint) error {
	payload, err := json.Marshal(c)
	if err != nil {
		return err
	}
	return artifact.WriteFile(path, func(w io.Writer) error {
		_, err := artifact.Write(w, CheckpointKind, [2]uint32{}, payload)
		return err
	})
}

// LoadCheckpoint reads, integrity-checks, and validates a checkpoint.
// Truncated or corrupt files are rejected with an explicit error — a
// resume must never merge on top of a damaged aggregate.
func LoadCheckpoint(path string) (*Checkpoint, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	_, payload, err := artifact.Read(data, CheckpointKind)
	if err != nil {
		return nil, fmt.Errorf("dist: checkpoint %s is truncated or corrupt: %w", path, err)
	}
	var c Checkpoint
	if err := json.Unmarshal(payload, &c); err != nil {
		return nil, fmt.Errorf("dist: checkpoint %s payload is corrupt: %v", path, err)
	}
	if err := c.Validate(); err != nil {
		return nil, err
	}
	return &c, nil
}

package sweep

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/memo"
)

// Range is a half-open interval [Lo, Hi) of pattern indices in a
// Source's order — the unit of work a distributed sweep shards on.
// Ranges split on pattern boundaries, never inside a pattern's seed
// group, so any partition of the source merges back to the serial
// report (see Aggregator).
//
// It serializes as the two-element array [lo, hi] to keep the wire and
// checkpoint formats compact.
type Range struct {
	Lo, Hi int
}

// Len returns the number of patterns in the range.
func (r Range) Len() int { return r.Hi - r.Lo }

// String renders the cmd/verify -worker contract form "lo:hi".
func (r Range) String() string { return fmt.Sprintf("%d:%d", r.Lo, r.Hi) }

// Valid reports whether the range is non-empty and within a source of
// the given size (total < 0 skips the upper-bound check).
func (r Range) Valid(total int) bool {
	return r.Lo >= 0 && r.Lo < r.Hi && (total < 0 || r.Hi <= total)
}

// MarshalJSON encodes the range as [lo, hi].
func (r Range) MarshalJSON() ([]byte, error) { return json.Marshal([2]int{r.Lo, r.Hi}) }

// UnmarshalJSON decodes the [lo, hi] form.
func (r *Range) UnmarshalJSON(data []byte) error {
	var v [2]int
	if err := json.Unmarshal(data, &v); err != nil {
		return fmt.Errorf("sweep: malformed range %s", data)
	}
	r.Lo, r.Hi = v[0], v[1]
	return nil
}

// ParseRange parses the "lo:hi" rendering of a Range.
func ParseRange(s string) (Range, error) {
	var r Range
	if _, err := fmt.Sscanf(s, "%d:%d", &r.Lo, &r.Hi); err != nil {
		return Range{}, fmt.Errorf("sweep: malformed range %q (want lo:hi)", s)
	}
	if !r.Valid(-1) {
		return Range{}, fmt.Errorf("sweep: empty or negative range %q", s)
	}
	return r, nil
}

// Partition splits [0, total) into at most shards contiguous ranges of
// near-equal size (sizes differ by at most one, larger shards first).
// Every pattern lands in exactly one range, so the shard reports merge
// to the full report. A shards count above total degenerates to
// singleton ranges.
func Partition(total, shards int) []Range {
	if total <= 0 || shards <= 0 {
		return nil
	}
	if shards > total {
		shards = total
	}
	out := make([]Range, 0, shards)
	size, rem := total/shards, total%shards
	lo := 0
	for i := 0; i < shards; i++ {
		hi := lo + size
		if i < rem {
			hi++
		}
		out = append(out, Range{Lo: lo, Hi: hi})
		lo = hi
	}
	return out
}

// Shard restricts a Source to the pattern-index range r, re-indexing
// from zero — the view a distributed worker sweeps. The worker's local
// indices are mapped back to global ones on the wire (the shard's Lo is
// in the stream header), so the coordinator's merge sees exactly the
// indices a single-process sweep would have produced.
func Shard(src Source, r Range) Source {
	return &shardSource{src: src, r: r}
}

type shardSource struct {
	src Source
	r   Range
}

func (s *shardSource) Label() string { return fmt.Sprintf("%s[%s]", s.src.Label(), s.r) }

func (s *shardSource) Count() int { return s.r.Len() }

func (s *shardSource) Each(visit func(int, config.Config) bool) {
	if rs, ok := s.src.(RangeSource); ok {
		// Seekable source: start at Lo directly — for an indexed space
		// this is O(1), the worker never touches patterns below its
		// shard.
		rs.EachRange(s.r, func(i int, c config.Config) bool {
			return visit(i-s.r.Lo, c)
		})
		return
	}
	s.src.Each(func(i int, c config.Config) bool {
		if i < s.r.Lo {
			return true
		}
		if i >= s.r.Hi {
			return false
		}
		return visit(i-s.r.Lo, c)
	})
}

// SpecDescVersion is the schema version of the serialized sweep
// description. Bump it on any change to SpecDesc's fields or meaning;
// the wire header and checkpoint files carry the digest of the whole
// descriptor, so a coordinator/worker version skew is detected before a
// single case is merged.
//
// Version history:
//
//	1: initial descriptor (N/Alg/Sched/Seeds/VisRange/MaxRounds).
//	2: adds Order, the named canonical source order ("key/v1"). The
//	   order itself is unchanged — the key-native engine reproduces
//	   version 1's enumeration byte-identically — but the descriptor
//	   now says so explicitly, so an artifact (checkpoint, pattern
//	   index, shard stream) and a binary can prove they agree on what
//	   "pattern i" means before any case merges.
const SpecDescVersion = 2

// OrderKeyV1 names the canonical source order: ascending packed-key
// order (config.Key128 numeric order), which coincides with
// config.Compare order. Pattern indexes carry the same declaration in
// their header.
const OrderKeyV1 = "key/v1"

// SpecDesc is the serializable description of a sweep Spec — the part
// of a Spec that can cross a process boundary. Closures (Goal, custom
// Sources, Progress) cannot; a SpecDesc instead names the algorithm
// (core.ByName), the scheduler, and the source family, and Spec()
// rebuilds the defaults exactly as cmd/verify does, so a worker handed
// a SpecDesc runs the same sweep the coordinator planned.
type SpecDesc struct {
	// Version is the descriptor schema version (SpecDescVersion).
	Version int `json:"version"`
	// N is the robot count.
	N int `json:"n"`
	// Alg names the algorithm in the core.ByName registry ("full",
	// "three", ...). Empty means "full", the Gatherer.
	Alg string `json:"alg,omitempty"`
	// Sched selects the scheduler: "fsync" (or empty), "ssync", or
	// "cent". The adversary mode stays single-process: n = 10 decides
	// in about 35 s in one process, and its per-pattern solver state
	// counts depend on which worker reaches a shared game state first,
	// so a shard split would not reproduce them.
	Sched string `json:"sched,omitempty"`
	// Seeds is the number of activation schedules per pattern (seeds
	// 1..Seeds, the cmd/verify -seeds contract). 0 means 1.
	Seeds int `json:"seeds,omitempty"`
	// VisRange is the connectivity relaxation (the cmd/verify -range
	// contract): 0 or 1 selects the adjacency-connected space, R > 1
	// the visibility-R-connected one.
	VisRange int `json:"range,omitempty"`
	// MaxRounds bounds each run (0 = the engine default).
	MaxRounds int `json:"max_rounds,omitempty"`
	// Order names the canonical source order pattern indices refer to.
	// Empty normalizes to OrderKeyV1, the only order defined.
	Order string `json:"order,omitempty"`
}

// Normalize fills the defaults in place so that equivalent descriptors
// digest identically.
func (d *SpecDesc) Normalize() {
	if d.Version == 0 {
		d.Version = SpecDescVersion
	}
	if d.N == 0 {
		d.N = 7
	}
	if d.Alg == "" {
		d.Alg = "full"
	}
	if d.Sched == "" {
		d.Sched = "fsync"
	}
	if d.Seeds < 1 {
		d.Seeds = 1
	}
	if d.VisRange < 1 {
		d.VisRange = 1
	}
	if d.Order == "" {
		d.Order = OrderKeyV1
	}
}

// Validate checks the descriptor resolves to a runnable sweep.
func (d SpecDesc) Validate() error {
	d.Normalize()
	if d.Version != SpecDescVersion {
		return fmt.Errorf("sweep: spec version %d, this binary speaks %d", d.Version, SpecDescVersion)
	}
	if _, err := core.ByName(d.Alg); err != nil {
		return fmt.Errorf("sweep: %v", err)
	}
	switch d.Sched {
	case "fsync", "ssync", "cent":
	default:
		return fmt.Errorf("sweep: scheduler %q is not distributable (want fsync, ssync, or cent)", d.Sched)
	}
	if err := checkN(d.N); err != nil {
		return err
	}
	if d.Order != OrderKeyV1 {
		return fmt.Errorf("sweep: source order %q, this binary speaks %q", d.Order, OrderKeyV1)
	}
	return nil
}

// Digest returns the hex SHA-256 of the normalized descriptor's
// canonical JSON. Workers compare it against the coordinator's before
// merging a single case, so version or flag skew fails loudly instead
// of silently mis-merging.
func (d SpecDesc) Digest() string {
	d.Normalize()
	data, err := json.Marshal(d)
	if err != nil {
		// A fixed-shape struct of ints and strings cannot fail to
		// marshal; keep the signature clean.
		panic(err)
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])
}

// Meta builds the Report header the descriptor's sweep produces — what
// a distributed coordinator aggregates under. It forces the source
// Count, which for relaxed spaces costs one counting enumeration.
func (d SpecDesc) Meta() (Meta, error) {
	spec, err := d.Spec()
	if err != nil {
		return Meta{}, err
	}
	return d.MetaFor(spec), nil
}

// MetaFor is Meta over an already-built Spec — the entry for callers
// that substituted the source (SpecWith) and want the header and the
// source to be the same object, so the Count paid here is the only one.
func (d SpecDesc) MetaFor(spec Spec) Meta {
	d.Normalize()
	schedName := "fsync"
	if spec.Scheduler != nil {
		schedName = spec.Scheduler(1).Name()
	}
	return Meta{
		// core.Memoize preserves the wrapped algorithm's name, so the
		// unwrapped name here matches what Stream reports.
		Algorithm: spec.Alg.Name(),
		Scheduler: schedName,
		Robots:    spec.N,
		Source:    spec.Source.Label(),
		Patterns:  spec.Source.Count(),
		Schedules: d.Seeds,
	}
}

// SpecWith is Spec with the source served from a loaded pattern index
// when set covers the descriptor's space (nil set or uncovered space
// falls back to live enumeration). The substitution never changes what
// the sweep computes — the index IS the enumeration, persisted — only
// what it costs to start.
func (d SpecDesc) SpecWith(set *IndexSet) (Spec, error) {
	spec, err := d.Spec()
	if err != nil {
		return Spec{}, err
	}
	if src, ok := set.SourceFor(d); ok {
		spec.Source = src
	}
	return spec, nil
}

// Spec rebuilds the runnable Spec the descriptor describes, with a
// fresh per-process view→move cache and configuration→outcome store —
// the same defaults cmd/verify applies, which is what makes a worker's
// shard of the sweep and a single-process run of the whole sweep the
// same computation.
func (d SpecDesc) Spec() (Spec, error) {
	d.Normalize()
	if err := d.Validate(); err != nil {
		return Spec{}, err
	}
	alg, err := core.ByName(d.Alg)
	if err != nil {
		return Spec{}, err
	}
	spec := Spec{
		N:         d.N,
		Alg:       alg,
		Seeds:     SeedRange(1, d.Seeds),
		MaxRounds: d.MaxRounds,
		Cache:     core.NewMemo(),
	}
	switch d.Sched {
	case "ssync":
		spec.Scheduler = SSYNC
	case "cent":
		spec.Scheduler = CENT
	}
	if d.VisRange > 1 {
		spec.Source = ConnectedWithin(d.N, d.VisRange)
	} else {
		spec.Source = Connected(d.N)
	}
	spec.OutcomeMemo = memo.NewOutcomes()
	return spec, nil
}

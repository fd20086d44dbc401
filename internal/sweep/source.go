package sweep

import (
	"fmt"
	"strings"
	"sync"

	"repro/internal/config"
	"repro/internal/enumerate"
)

// Source yields the initial patterns of a sweep in a deterministic
// order. Count and Each may be called from different goroutines, but
// never concurrently with themselves.
type Source interface {
	// Label names the source in reports, e.g. "connected(7)".
	Label() string
	// Count returns the number of patterns the source yields.
	Count() int
	// Each calls visit with every pattern and its index, in order,
	// stopping early when visit returns false.
	Each(visit func(i int, c config.Config) bool)
}

// RangeSource is a Source that can seek: EachRange visits only the
// patterns with global indices in [r.Lo, r.Hi), in order, without
// scanning the prefix. Shard detects it and starts a worker's view at
// its shard boundary in O(1) — the property the pattern index exists
// for — instead of enumerating and discarding everything below Lo.
type RangeSource interface {
	Source
	// EachRange calls visit with every pattern whose global index lies
	// in r, stopping early when visit returns false. r must be valid
	// for Count().
	EachRange(r Range, visit func(i int, c config.Config) bool)
}

// sliceSource materializes its pattern list lazily, once, on first use
// — so building a Spec costs nothing until the sweep runs.
type sliceSource struct {
	label string
	once  sync.Once
	build func() []config.Config
	list  []config.Config
}

func (s *sliceSource) Label() string { return s.label }

func (s *sliceSource) Count() int {
	s.once.Do(func() { s.list = s.build() })
	return len(s.list)
}

func (s *sliceSource) Each(visit func(int, config.Config) bool) {
	s.EachRange(Range{Lo: 0, Hi: s.Count()}, visit)
}

func (s *sliceSource) EachRange(r Range, visit func(int, config.Config) bool) {
	s.once.Do(func() { s.list = s.build() })
	for i := r.Lo; i < r.Hi && i < len(s.list); i++ {
		if !visit(i, s.list[i]) {
			return
		}
	}
}

// EnumStatsSource is implemented by sources that enumerate their space
// on first use and can report the enumeration's statistics afterwards.
// The daemons thread these into their metrics registries and progress
// output; ok is false until Count or Each has forced the build.
type EnumStatsSource interface {
	EnumStats() (enumerate.Stats, bool)
}

// Connected is the paper's sweep space: every connected n-robot pattern
// up to translation (enumerate.ConnectedStats), in the canonical
// "key/v1" enumeration order. The enumeration's statistics are exposed
// via EnumStats once built.
func Connected(n int) Source {
	return &connectedSource{n: n}
}

// checkN refuses robot counts outside [1, enumerate.MaxKeyN], the
// sizes the connected space can be enumerated at. Descriptors and
// default sources meet it before anything enumerates.
func checkN(n int) error {
	if n < 1 || n > enumerate.MaxKeyN {
		return fmt.Errorf("sweep: invalid robot count %d (want 1..%d)", n, enumerate.MaxKeyN)
	}
	return nil
}

type connectedSource struct {
	n     int
	once  sync.Once
	list  []config.Config
	stats enumerate.Stats
	built bool
}

func (s *connectedSource) materialize() {
	s.once.Do(func() {
		s.list, s.stats = enumerate.ConnectedStats(s.n, 0)
		s.built = true
	})
}

func (s *connectedSource) Label() string { return fmt.Sprintf("connected(%d)", s.n) }

func (s *connectedSource) Count() int {
	s.materialize()
	return len(s.list)
}

func (s *connectedSource) Each(visit func(int, config.Config) bool) {
	s.EachRange(Range{Lo: 0, Hi: s.Count()}, visit)
}

func (s *connectedSource) EachRange(r Range, visit func(int, config.Config) bool) {
	s.materialize()
	for i := r.Lo; i < r.Hi && i < len(s.list); i++ {
		if !visit(i, s.list[i]) {
			return
		}
	}
}

func (s *connectedSource) EnumStats() (enumerate.Stats, bool) { return s.stats, s.built }

// ConnectedWithin is the relaxed-connectivity space (experiment E9):
// every n-robot pattern whose visibility graph at the given range is
// connected. Unlike Connected it streams (enumerate.EachWithin): the
// size-n generation is never materialized — only the size-(n-1)
// parents plus a compact key set — because at range 2 the full n = 7
// space is ≈2.6 M patterns and retaining them is exactly the memory
// wall the streaming engine exists to remove. Count costs one extra
// counting pass; patterns arrive in EachWithin's parent-major order.
func ConnectedWithin(n, visRange int) Source {
	return &withinSource{n: n, visRange: visRange}
}

type withinSource struct {
	n, visRange int
	once        sync.Once
	total       int
}

func (s *withinSource) Label() string { return fmt.Sprintf("within(%d,%d)", s.n, s.visRange) }

func (s *withinSource) Count() int {
	s.once.Do(func() { s.total = enumerate.EachWithin(s.n, s.visRange, nil) })
	return s.total
}

func (s *withinSource) Each(visit func(int, config.Config) bool) {
	i := 0
	enumerate.EachWithin(s.n, s.visRange, func(c config.Config) bool {
		ok := visit(i, c)
		i++
		return ok
	})
}

// ConnectedIndex serves a loaded pattern index as the connected(n)
// sweep space. Its label — and therefore every report header and
// digest downstream — is identical to Connected(n)'s, because it IS
// the same source in the same "key/v1" order; only the cost model
// differs: patterns decode from packed keys per visit, nothing is
// enumerated, and seeking to a shard is a slice.
func ConnectedIndex(ix *enumerate.Index) Source {
	return &indexSource{ix: ix}
}

type indexSource struct {
	ix *enumerate.Index
}

func (s *indexSource) Label() string { return fmt.Sprintf("connected(%d)", s.ix.N()) }

func (s *indexSource) Count() int { return s.ix.Count() }

func (s *indexSource) Each(visit func(int, config.Config) bool) {
	s.EachRange(Range{Lo: 0, Hi: s.ix.Count()}, visit)
}

func (s *indexSource) EachRange(r Range, visit func(int, config.Config) bool) {
	for i := r.Lo; i < r.Hi; i++ {
		if !visit(i, s.ix.At(i)) {
			return
		}
	}
}

// IndexSet holds loaded pattern indexes keyed by robot count and
// substitutes them for live enumeration wherever a descriptor's space
// matches one. A nil set is valid and never substitutes, so callers
// thread it unconditionally.
type IndexSet struct {
	byN map[int]*enumerate.Index
}

// Add registers an index, replacing any previous one for the same n.
func (s *IndexSet) Add(ix *enumerate.Index) {
	if s.byN == nil {
		s.byN = make(map[int]*enumerate.Index)
	}
	s.byN[ix.N()] = ix
}

// LoadIndexes reads, verifies, and registers every index file of a
// comma-separated list; an empty list yields the nil set.
func LoadIndexes(list string) (*IndexSet, error) {
	var s *IndexSet
	for _, path := range strings.Split(list, ",") {
		if path = strings.TrimSpace(path); path == "" {
			continue
		}
		ix, err := enumerate.LoadIndex(path)
		if err != nil {
			return nil, err
		}
		if s == nil {
			s = &IndexSet{}
		}
		s.Add(ix)
	}
	return s, nil
}

// SourceFor returns the indexed source for the descriptor's sweep
// space, if the set covers it. Only the plain connected space is
// indexable — the relaxed (VisRange > 1) spaces stream from a
// different generator and keep their own order.
func (s *IndexSet) SourceFor(d SpecDesc) (Source, bool) {
	d.Normalize()
	if s == nil || d.VisRange > 1 {
		return nil, false
	}
	ix, ok := s.byN[d.N]
	if !ok {
		return nil, false
	}
	return ConnectedIndex(ix), true
}

// Patterns sweeps an explicit pattern list in the given order — single
// scenarios, regression fixtures, or a failure set re-run under more
// schedules.
func Patterns(cs ...config.Config) Source {
	return &sliceSource{
		label: fmt.Sprintf("list(%d)", len(cs)),
		build: func() []config.Config { return cs },
	}
}

package enumerate

import (
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/config"
	"repro/internal/grid"
)

// This file is the key-native enumeration engine. A frontier
// generation is a key-only set: candidates are keyed straight from the
// growth scratch as config.Key128 values (childKey), deduplicated in a
// 64-way lock-striped shard set (the internal/memo striping idiom), and
// a configuration is rebuilt from its key (config.FromKey128) only when
// a caller visits it. The canonical output order is ascending key order
// — order "key/v1" in sweep.SpecDesc terms — which coincides exactly
// with the config.Compare order: for same-n normalized patterns the key
// is the fixed-width concatenation of the node deltas in node order, so
// integer comparison of keys IS lexicographic comparison of node lists.
// The final generation is sorted by a parallel chunk merge sort over
// the packed keys instead of sort.Slice over configs.

// MaxKeyN is the largest robot count the key-native engine covers:
// every connected pattern through config.MaxKeyNodes nodes is exactly
// Key128-encodable (spread ≤ n−1). Every entry point refuses larger
// sizes (checkSize): they are far past any tractable enumeration.
const MaxKeyN = config.MaxKeyNodes

// Stats describes one enumeration run of the key-native engine — the
// satellite observability the sweep daemons surface (patterns/sec,
// dedup hit rate, peak frontier size).
type Stats struct {
	// Patterns is the size of the final generation.
	Patterns int
	// Unique is the number of distinct patterns across all generations
	// (the configuration count of every intermediate size included).
	Unique int64
	// Candidates is the number of candidate extensions keyed and
	// probed against the dedup set; Candidates − (Unique − 1) of them
	// were duplicates.
	Candidates int64
	// PeakFrontier is the largest single generation held at once.
	PeakFrontier int
	// DurationUS is the wall time of the enumeration in microseconds.
	DurationUS int64
}

// DedupHitRate is the fraction of candidate probes that hit an
// already-seen pattern — the work the key-only set absorbs without
// allocating.
func (s Stats) DedupHitRate() float64 {
	if s.Candidates == 0 {
		return 0
	}
	return float64(s.Candidates-(s.Unique-1)) / float64(s.Candidates)
}

// PatternsPerSec is the final-generation throughput of the run.
func (s Stats) PatternsPerSec() float64 {
	if s.DurationUS == 0 {
		return 0
	}
	return float64(s.Patterns) / (float64(s.DurationUS) / 1e6)
}

// Keys returns the canonical key list of every connected n-node
// pattern up to translation: ascending config.Key128 order ("key/v1"),
// which equals the config.Compare order Connected emits. The growth
// fans out over GOMAXPROCS workers. n must be at most MaxKeyN.
func Keys(n int) []config.Key128 {
	keys, _ := KeysStats(n, 0)
	return keys
}

// KeysStats is Keys with explicit worker-pool sizing (workers ≤ 0 =
// GOMAXPROCS) and the run's Stats. The key list is identical — and
// identically ordered — at every worker count.
func KeysStats(n, workers int) ([]config.Key128, Stats) {
	keys, stats := growKeyGenerations(n, workers)
	start := time.Now()
	parallelSortKeys(keys, normWorkers(workers))
	stats.DurationUS += time.Since(start).Microseconds()
	return keys, stats
}

// growKeyGenerations runs the growth loop and returns the final
// generation unsorted (content deterministic, order not).
func growKeyGenerations(n, workers int) ([]config.Key128, Stats) {
	checkSize(n)
	var stats Stats
	if n == 0 {
		return nil, stats
	}
	workers = normWorkers(workers)
	start := time.Now()
	seed, _ := config.Key128Nodes([]grid.Coord{grid.Origin})
	cur := []config.Key128{seed}
	stats.Unique, stats.PeakFrontier = 1, 1
	for size := 1; size < n; size++ {
		cur = growKeys(cur, workers, &stats)
		stats.Unique += int64(len(cur))
		if len(cur) > stats.PeakFrontier {
			stats.PeakFrontier = len(cur)
		}
	}
	stats.Patterns = len(cur)
	stats.DurationUS = time.Since(start).Microseconds()
	return cur, stats
}

// keyShardCount is the dedup set's stripe count, matching the
// internal/memo store the enumeration feeds.
const keyShardCount = 64

// keyHash mixes both key words through a full-avalanche finalizer
// (murmur3 fmix64): pattern keys concentrate their entropy in a few
// delta fields, so a plain multiplicative hash leaves the low bits —
// the table's slot index — clustered, and linear probing degrades.
// After fmix64 every output bit depends on every input bit; the stripe
// index reads the top 6 bits (memo's idiom) and the slot index the low
// bits, so the two stay independent within a stripe.
func keyHash(k config.Key128) uint64 {
	h := k.Lo ^ k.Hi*0x9e3779b97f4a7c15
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return h
}

func keyShardOf(k config.Key128) int { return int(keyHash(k) >> (64 - 6)) }

// keyTable is a flat open-addressed key set: power-of-two slot array,
// linear probing, insert-only, the zero key as the empty sentinel
// (every nonempty pattern's key carries its length field, so a valid
// key is never zero). It replaces the builtin map for the frontier
// sets because enumeration dedup is pure insert-or-skip on a two-word
// value — no deletions, no stored values — and the flat table probes
// in one cache line where map[config.Key128]struct{} pays bucket and
// hashing overhead per candidate.
type keyTable struct {
	slots []config.Key128
	mask  uint64
	n     int
}

func newKeyTable(hint int) *keyTable {
	size := 64
	for size*3 < hint*4 { // keeps load ≤ 3/4 once hint keys arrive
		size <<= 1
	}
	return &keyTable{slots: make([]config.Key128, size), mask: uint64(size - 1)}
}

func (t *keyTable) insert(k config.Key128) {
	i := keyHash(k) & t.mask
	for {
		s := t.slots[i]
		if s == k {
			return
		}
		if s == (config.Key128{}) {
			t.slots[i] = k
			t.n++
			if t.n*4 >= len(t.slots)*3 {
				t.grow()
			}
			return
		}
		i = (i + 1) & t.mask
	}
}

func (t *keyTable) grow() {
	old := t.slots
	t.slots = make([]config.Key128, len(old)*2)
	t.mask = uint64(len(t.slots) - 1)
	for _, k := range old {
		if k == (config.Key128{}) {
			continue
		}
		i := keyHash(k) & t.mask
		for t.slots[i] != (config.Key128{}) {
			i = (i + 1) & t.mask
		}
		t.slots[i] = k
	}
}

func (t *keyTable) appendKeys(dst []config.Key128) []config.Key128 {
	for _, k := range t.slots {
		if k != (config.Key128{}) {
			dst = append(dst, k)
		}
	}
	return dst
}

// keySet is the lock-striped frontier set of the parallel growth step:
// keyShardCount stripes, each one keyTable under its own mutex, with
// batched insertion so the lock is taken once per keyBatchSize
// candidates.
type keySet struct {
	shards [keyShardCount]keyShard
}

type keyShard struct {
	mu sync.Mutex
	t  *keyTable
	// pad the stripe to its own cache line so neighboring mutexes do
	// not false-share under contention.
	_ [64 - 8*3]byte
}

func newKeySet(sizeHint int) *keySet {
	s := &keySet{}
	for i := range s.shards {
		s.shards[i].t = newKeyTable(sizeHint / keyShardCount)
	}
	return s
}

// addBatch inserts a run of keys that all hash to stripe i under one
// lock acquisition.
func (s *keySet) addBatch(i int, keys []config.Key128) {
	sh := &s.shards[i]
	sh.mu.Lock()
	for _, k := range keys {
		sh.t.insert(k)
	}
	sh.mu.Unlock()
}

// keyBatch is one worker's per-stripe candidate buffer.
type keyBatch struct {
	buf [keyShardCount][]config.Key128
}

const keyBatchSize = 256

func (b *keyBatch) add(set *keySet, k config.Key128) {
	i := keyShardOf(k)
	if b.buf[i] == nil {
		b.buf[i] = make([]config.Key128, 0, keyBatchSize)
	}
	b.buf[i] = append(b.buf[i], k)
	if len(b.buf[i]) == keyBatchSize {
		set.addBatch(i, b.buf[i])
		b.buf[i] = b.buf[i][:0]
	}
}

func (b *keyBatch) flush(set *keySet) {
	for i, keys := range b.buf {
		if len(keys) > 0 {
			set.addBatch(i, keys)
			b.buf[i] = b.buf[i][:0]
		}
	}
}

// drain extracts every key into one slice (unsorted) and releases the
// shard tables. Each shard writes its own precomputed region, so the
// extraction parallelizes without a merge step.
func (s *keySet) drain() []config.Key128 {
	var offsets [keyShardCount + 1]int
	for i := range s.shards {
		offsets[i+1] = offsets[i] + s.shards[i].t.n
	}
	out := make([]config.Key128, offsets[keyShardCount])
	var wg sync.WaitGroup
	for i := range s.shards {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			s.shards[i].t.appendKeys(out[offsets[i]:offsets[i]:offsets[i+1]])
			s.shards[i].t = nil
		}(i)
	}
	wg.Wait()
	return out
}

// growKeys extends every parent key by one node, deduplicating into a
// fresh key set, and returns the child generation. Workers split the
// parent slice into contiguous chunks over the striped set; insertion
// order differs across runs but the resulting set — and therefore the
// sorted output — does not. Single-worker growth (and any frontier too
// small to be worth fanning out) runs lock-free on one table.
func growKeys(parents []config.Key128, workers int, stats *Stats) []config.Key128 {
	if workers == 1 || len(parents) < 4096 {
		return growKeysSerial(parents, stats)
	}
	set := newKeySet(len(parents) * 4)
	if workers > len(parents) {
		workers = len(parents)
	}
	chunk := (len(parents) + workers - 1) / workers
	var candidates atomic.Int64
	var wg sync.WaitGroup
	for lo := 0; lo < len(parents); lo += chunk {
		hi := min(lo+chunk, len(parents))
		wg.Add(1)
		go func(part []config.Key128) {
			defer wg.Done()
			var scr growScratch
			var batch keyBatch
			var err error
			local := int64(0)
			for _, pk := range part {
				scr.base, err = config.AppendKey128Nodes(scr.base[:0], pk)
				if err != nil {
					panic("enumerate: corrupt frontier key: " + err.Error())
				}
				for _, v := range scr.base {
					for _, nb := range v.Neighbors() {
						if containsSorted(scr.base, nb) {
							continue
						}
						local++
						batch.add(set, childKey(scr.base, nb))
					}
				}
			}
			batch.flush(set)
			candidates.Add(local)
		}(parents[lo:hi])
	}
	wg.Wait()
	stats.Candidates += candidates.Load()
	return set.drain()
}

// growKeysSerial is the lock-free single-worker growth step: one flat
// table, candidates probed directly.
func growKeysSerial(parents []config.Key128, stats *Stats) []config.Key128 {
	t := newKeyTable(len(parents) * 4)
	var scr growScratch
	var err error
	local := int64(0)
	for _, pk := range parents {
		scr.base, err = config.AppendKey128Nodes(scr.base[:0], pk)
		if err != nil {
			panic("enumerate: corrupt frontier key: " + err.Error())
		}
		for _, v := range scr.base {
			for _, nb := range v.Neighbors() {
				if containsSorted(scr.base, nb) {
					continue
				}
				local++
				t.insert(childKey(scr.base, nb))
			}
		}
	}
	stats.Candidates += local
	return t.appendKeys(make([]config.Key128, 0, t.n))
}

// childKey keys the pattern base ∪ {v} directly from the sorted parent
// nodes — the candidate is never materialized as a node list. base must
// be sorted ascending, v must not be in base, and the child must fit
// the exact envelope (guaranteed for connected children of at most
// MaxKeyN nodes: the spread is at most n − 1 ≤ 13). This fusion of
// mergeInsert + config.Key128Nodes is the growth loop's hottest path.
func childKey(base []grid.Coord, v grid.Coord) config.Key128 {
	a := base[0]
	vFirst := v.Q < a.Q || (v.Q == a.Q && v.R < a.R)
	if vFirst {
		a = v
	}
	var key config.Key128
	key.Lo = uint64(len(base) + 1)
	rest := base
	if !vFirst {
		rest = base[1:] // base[0] is the anchor: its zero delta is implicit
	}
	inserted := vFirst
	for _, w := range rest {
		if !inserted && (v.Q < w.Q || (v.Q == w.Q && v.R < w.R)) {
			key.Hi = key.Hi<<9 | key.Lo>>55
			key.Lo = key.Lo<<9 | uint64(v.Q-a.Q)<<5 | uint64(v.R-a.R+15)
			inserted = true
		}
		key.Hi = key.Hi<<9 | key.Lo>>55
		key.Lo = key.Lo<<9 | uint64(w.Q-a.Q)<<5 | uint64(w.R-a.R+15)
	}
	if !inserted {
		key.Hi = key.Hi<<9 | key.Lo>>55
		key.Lo = key.Lo<<9 | uint64(v.Q-a.Q)<<5 | uint64(v.R-a.R+15)
	}
	return key
}

// containsSorted reports membership in an ascending node list, cutting
// the scan at the first node past v.
func containsSorted(nodes []grid.Coord, v grid.Coord) bool {
	for _, w := range nodes {
		if w.Q > v.Q || (w.Q == v.Q && w.R >= v.R) {
			return w == v
		}
	}
	return false
}

// cmpKey128 orders keys ascending, Hi before Lo — the "key/v1"
// canonical source order.
func cmpKey128(a, b config.Key128) int {
	switch {
	case a.Hi != b.Hi:
		if a.Hi < b.Hi {
			return -1
		}
		return 1
	case a.Lo != b.Lo:
		if a.Lo < b.Lo {
			return -1
		}
		return 1
	}
	return 0
}

// parallelSortKeys sorts keys ascending with a parallel chunk merge
// sort: contiguous chunks sort concurrently, then pairs of sorted runs
// merge concurrently per round, ping-ponging through one auxiliary
// buffer. Small inputs fall through to a plain sort.
func parallelSortKeys(keys []config.Key128, workers int) {
	const minChunk = 1 << 13
	if workers > len(keys)/minChunk {
		workers = len(keys) / minChunk
	}
	if workers <= 1 {
		slices.SortFunc(keys, cmpKey128)
		return
	}
	bounds := make([]int, 0, workers+1)
	chunk := (len(keys) + workers - 1) / workers
	for lo := 0; lo < len(keys); lo += chunk {
		bounds = append(bounds, lo)
	}
	bounds = append(bounds, len(keys))
	var wg sync.WaitGroup
	for i := 0; i+1 < len(bounds); i++ {
		wg.Add(1)
		go func(part []config.Key128) {
			defer wg.Done()
			slices.SortFunc(part, cmpKey128)
		}(keys[bounds[i]:bounds[i+1]])
	}
	wg.Wait()
	aux := make([]config.Key128, len(keys))
	src, dst := keys, aux
	for len(bounds) > 2 {
		next := make([]int, 0, len(bounds)/2+1)
		var mg sync.WaitGroup
		i := 0
		for ; i+2 < len(bounds); i += 2 {
			mg.Add(1)
			go func(lo, mid, hi int) {
				defer mg.Done()
				mergeKeys(dst[lo:hi], src[lo:mid], src[mid:hi])
			}(bounds[i], bounds[i+1], bounds[i+2])
			next = append(next, bounds[i])
		}
		if i+1 < len(bounds) { // odd run copies through unmerged
			copy(dst[bounds[i]:bounds[i+1]], src[bounds[i]:bounds[i+1]])
			next = append(next, bounds[i])
		}
		next = append(next, len(keys))
		mg.Wait()
		src, dst = dst, src
		bounds = next
	}
	if &src[0] != &keys[0] {
		copy(keys, src)
	}
}

// mergeKeys merges two sorted runs into out (len(out) = len(a)+len(b)).
func mergeKeys(out, a, b []config.Key128) {
	w := 0
	for len(a) > 0 && len(b) > 0 {
		if cmpKey128(a[0], b[0]) <= 0 {
			out[w] = a[0]
			a = a[1:]
		} else {
			out[w] = b[0]
			b = b[1:]
		}
		w++
	}
	copy(out[w:], a)
	copy(out[w:], b)
}

// Each streams every connected n-node pattern to visit in canonical
// order ("key/v1" = config.Compare order, exactly Connected's), without
// retaining the configurations: only the packed key list is held, and
// each configuration is decoded at visit time. It returns the pattern
// count; visit may be nil to count only, and may return false to stop
// early. It is the adjacency-connected analogue of EachWithin.
func Each(n int, visit func(config.Config) bool) int {
	keys := Keys(n)
	if visit != nil {
		for _, k := range keys {
			c, err := config.FromKey128(k)
			if err != nil {
				panic("enumerate: corrupt pattern key: " + err.Error())
			}
			if !visit(c) {
				break
			}
		}
	}
	return len(keys)
}

// materializeKeys decodes a sorted key list into configurations
// backed by one contiguous node array — two allocations total instead
// of one per pattern.
func materializeKeys(keys []config.Key128, n int) []config.Config {
	backing := make([]grid.Coord, 0, len(keys)*n)
	out := make([]config.Config, len(keys))
	var err error
	for i, k := range keys {
		lo := len(backing)
		backing, err = config.AppendKey128Nodes(backing, k)
		if err != nil {
			panic("enumerate: corrupt pattern key: " + err.Error())
		}
		out[i] = config.FromSortedNodes(backing[lo:len(backing):len(backing)])
	}
	return out
}

func normWorkers(workers int) int {
	if workers <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return workers
}

// checkSize is the one size guard every public entry point shares, so
// Connected, ConnectedStats, Count, Keys, and Each agree on negative
// input and on sizes past MaxKeyN.
func checkSize(n int) {
	if n < 0 {
		panic("enumerate: negative size")
	}
	if n > MaxKeyN {
		panic("enumerate: size past the exact key envelope")
	}
}

package memo

import (
	"sync"

	"repro/internal/config"
)

// Flight adds true single-flight deduplication on top of a Store: an
// opt-in in-flight wait table that guarantees at most one computation
// per key is ever running, with every concurrent requester of the same
// key waiting for that one result instead of recomputing it.
//
// The bare Store is single-flight in effect only (see the package
// comment): duplicated concurrent computations are benign because they
// produce equal values, and for sweep workloads — where two workers
// rarely stand at the same unsolved configuration at the same instant —
// recomputation is cheaper than coordination. A serving workload
// inverts that economy: a thundering herd of identical queries on one
// novel pattern would multiply a whole solver invocation per request.
// Flight is the mechanism for that path: the first requester computes,
// everyone else blocks on its completion, and the herd costs exactly
// one solve (the serve package's hammer test asserts this under
// -race).
//
// Values that complete successfully are published to the underlying
// Store, so later requests are plain lookups. Failed computations
// publish nothing — the error is handed to every waiter of that
// flight, and the next request for the key starts a fresh flight.
type Flight[V any] struct {
	store *Store[V]

	mu    sync.Mutex
	calls map[config.Key128]*flightCall[V]
}

type flightCall[V any] struct {
	done chan struct{}
	val  V
	err  error
}

// NewFlight wraps the store with an in-flight wait table. The store may
// be shared with direct Load/Publish users (a sweep warming the same
// store, say); Flight only adds coordination for its own callers.
func NewFlight[V any](store *Store[V]) *Flight[V] {
	return &Flight[V]{store: store, calls: make(map[config.Key128]*flightCall[V])}
}

// Store returns the underlying store.
func (f *Flight[V]) Store() *Store[V] { return f.store }

// Do returns the value for key, computing it at most once concurrently:
// a published value returns immediately; otherwise the first caller
// runs compute while every concurrent caller for the same key waits for
// its result. shared reports whether this caller got someone else's
// result (a store hit or a joined flight) rather than running compute
// itself.
func (f *Flight[V]) Do(key config.Key128, compute func() (V, error)) (v V, shared bool, err error) {
	if v, ok := f.store.Load(key); ok {
		return v, true, nil
	}
	f.mu.Lock()
	if c, ok := f.calls[key]; ok {
		f.mu.Unlock()
		<-c.done
		return c.val, true, c.err
	}
	// A flight that finished between the Load above and the Lock has
	// published before leaving calls, so the store has its value now.
	if v, ok := f.store.Load(key); ok {
		f.mu.Unlock()
		return v, true, nil
	}
	c := &flightCall[V]{done: make(chan struct{})}
	f.calls[key] = c
	f.mu.Unlock()

	c.val, c.err = compute()
	if c.err == nil {
		f.store.Publish(key, c.val)
	}
	f.mu.Lock()
	delete(f.calls, key)
	f.mu.Unlock()
	close(c.done)
	return c.val, false, c.err
}

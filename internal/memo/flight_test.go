package memo

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/config"
	"repro/internal/grid"
)

func flightKey(i int) config.Key128 {
	return keyOf(grid.Coord{Q: 0, R: 0}, grid.Coord{Q: i + 1, R: 0})
}

// TestFlight_OneComputePerKey is the single-flight hammer: many
// goroutines requesting the same key must trigger exactly one compute,
// and every requester must see its value. Run under -race (the CI race
// leg does) this also proves the wait table publishes safely.
func TestFlight_OneComputePerKey(t *testing.T) {
	f := NewFlight[int](NewStore[int]())
	var computes atomic.Int64
	const goroutines = 64

	var wg sync.WaitGroup
	start := make(chan struct{})
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			v, _, err := f.Do(flightKey(0), func() (int, error) {
				computes.Add(1)
				time.Sleep(10 * time.Millisecond) // hold the flight open so the herd piles up
				return 42, nil
			})
			if err != nil {
				errs <- err
				return
			}
			if v != 42 {
				errs <- fmt.Errorf("got %d, want 42", v)
			}
		}()
	}
	close(start)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if n := computes.Load(); n != 1 {
		t.Fatalf("compute ran %d times for one key, want exactly 1", n)
	}
	if v, ok := f.Store().Load(flightKey(0)); !ok || v != 42 {
		t.Fatalf("store after flight: %d, %v; want 42, true", v, ok)
	}
}

// TestFlight_ManyKeysHammer interleaves flights on distinct keys: each
// key computes exactly once even with every goroutine cycling through
// all of them.
func TestFlight_ManyKeysHammer(t *testing.T) {
	f := NewFlight[int](NewStore[int]())
	const keys = 8
	const goroutines = 32
	var computes [keys]atomic.Int64

	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < keys; i++ {
				k := (g + i) % keys
				v, _, err := f.Do(flightKey(k), func() (int, error) {
					computes[k].Add(1)
					return 100 + k, nil
				})
				if err != nil || v != 100+k {
					t.Errorf("key %d: got %d, %v", k, v, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	for k := range computes {
		if n := computes[k].Load(); n != 1 {
			t.Errorf("key %d computed %d times, want 1", k, n)
		}
	}
}

// TestFlight_ErrorNotPublished: a failed compute reaches every waiter
// of that flight but leaves the store empty, so the next request
// retries fresh.
func TestFlight_ErrorNotPublished(t *testing.T) {
	f := NewFlight[int](NewStore[int]())
	boom := errors.New("boom")
	var computes atomic.Int64
	if _, _, err := f.Do(flightKey(0), func() (int, error) {
		computes.Add(1)
		return 0, boom
	}); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	if _, ok := f.Store().Load(flightKey(0)); ok {
		t.Fatal("failed compute leaked into the store")
	}
	v, shared, err := f.Do(flightKey(0), func() (int, error) {
		computes.Add(1)
		return 7, nil
	})
	if err != nil || v != 7 || shared {
		t.Fatalf("retry: got %d, shared=%v, err=%v; want 7, false, nil", v, shared, err)
	}
	if computes.Load() != 2 {
		t.Fatalf("computes = %d, want 2 (failure then retry)", computes.Load())
	}
}

// TestFlight_StoreHitSkipsCompute: a published value short-circuits
// without entering the wait table.
func TestFlight_StoreHitSkipsCompute(t *testing.T) {
	store := NewStore[int]()
	store.Publish(flightKey(3), 9)
	f := NewFlight[int](store)
	v, shared, err := f.Do(flightKey(3), func() (int, error) {
		t.Fatal("compute ran despite a published value")
		return 0, nil
	})
	if err != nil || v != 9 || !shared {
		t.Fatalf("got %d, shared=%v, err=%v; want 9, true, nil", v, shared, err)
	}
}

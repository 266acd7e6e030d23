package kcache

import (
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

// key is the shape of key the cache's clients use: a comparable struct of
// the parts that produced the value (the kernel cache keys on pipeline,
// source and the Options value; the service's batcher on its eight parts).
type key struct {
	name string
	n    int
}

func k(name string) key { return key{name: name, n: len(name)} }

// do is Do with a computation that returns v.
func do[V any](t *testing.T, c *Cache[key, V], name string, v V) (V, Outcome) {
	t.Helper()
	got, o, err := c.Do(k(name), func() (V, error) { return v, nil })
	if err != nil {
		t.Fatal(err)
	}
	return got, o
}

func TestLRUEvictionOrder(t *testing.T) {
	c := New[key, int](2)
	do(t, c, "a", 1)
	do(t, c, "b", 2)
	if _, o := do(t, c, "a", -1); o != Hit { // refresh a; b becomes oldest
		t.Fatal("a missing")
	}
	do(t, c, "c", 3) // evicts b
	if v, o := do(t, c, "a", -1); o != Hit || v != 1 {
		t.Fatalf("a = %d,%v", v, o)
	}
	if v, o := do(t, c, "c", -1); o != Hit || v != 3 {
		t.Fatalf("c = %d,%v", v, o)
	}
	s := c.Stats()
	if s.Evictions != 1 || s.Entries != 2 {
		t.Fatalf("stats %+v, want 1 eviction, 2 entries", s)
	}
	// Misses a, b, c; hits a, a, c.
	if s.Hits != 3 || s.Misses != 3 {
		t.Fatalf("stats %+v, want 3 hits 3 misses", s)
	}
	if v, o := do(t, c, "b", 4); o != Miss || v != 4 {
		t.Fatalf("b = %d,%v: it should have been evicted and computed again", v, o)
	}
}

func TestDefaultBound(t *testing.T) {
	c := New[key, int](0)
	for i := 0; i < DefaultEntries+10; i++ {
		c.Do(key{n: i}, func() (int, error) { return i, nil })
	}
	if c.Stats().Entries != DefaultEntries {
		t.Fatalf("len %d, want %d", c.Stats().Entries, DefaultEntries)
	}
}

// TestDoSingleflightBarrier proves the dedup contract with a barrier: N
// goroutines Do the same missing key while the one computation is held
// open until every goroutine has reached Do, so all N are concurrent —
// and exactly one underlying computation runs.
func TestDoSingleflightBarrier(t *testing.T) {
	const n = 16
	c := New[key, int](8)
	var computes atomic.Int64
	var arrived sync.WaitGroup // goroutines that have reached their Do call
	arrived.Add(n)
	fn := func() (int, error) {
		computes.Add(1)
		arrived.Wait() // hold the flight open until all n are concurrent
		return 42, nil
	}
	var wg sync.WaitGroup
	results := make([]int, n)
	outcomes := make([]Outcome, n)
	for g := 0; g < n; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			arrived.Done()
			v, o, err := c.Do(k("k"), fn)
			if err != nil {
				t.Errorf("Do: %v", err)
			}
			results[g], outcomes[g] = v, o
		}(g)
	}
	wg.Wait()
	if got := computes.Load(); got != 1 {
		t.Fatalf("%d computations for %d concurrent Do calls, want exactly 1", got, n)
	}
	misses := 0
	for g := 0; g < n; g++ {
		if results[g] != 42 {
			t.Fatalf("goroutine %d got %d, want the shared 42", g, results[g])
		}
		if outcomes[g] == Miss {
			misses++
		}
	}
	if misses != 1 {
		t.Fatalf("%d Miss outcomes, want exactly 1 (rest Hit/Shared)", misses)
	}
	s := c.Stats()
	if s.Misses != 1 || s.Hits+s.Dedups != n-1 {
		t.Fatalf("stats %+v: want 1 miss and %d hits+dedups", s, n-1)
	}
	// The result is now resident: a late caller hits without computing.
	if v, o, err := c.Do(k("k"), fn); err != nil || v != 42 || o != Hit {
		t.Fatalf("late Do = %d,%v,%v, want 42,Hit,nil", v, o, err)
	}
	if computes.Load() != 1 {
		t.Fatal("late Do recomputed a resident key")
	}
}

func TestDoErrorSharedNotCached(t *testing.T) {
	c := New[key, int](8)
	boom := errors.New("boom")
	var computes atomic.Int64
	_, o, err := c.Do(k("k"), func() (int, error) { computes.Add(1); return 0, boom })
	if !errors.Is(err, boom) || o != Miss {
		t.Fatalf("first Do = %v,%v, want boom,Miss", o, err)
	}
	// Errors are not cached: the next Do retries and can succeed.
	v, o, err := c.Do(k("k"), func() (int, error) { computes.Add(1); return 7, nil })
	if err != nil || v != 7 || o != Miss {
		t.Fatalf("retry Do = %d,%v,%v, want 7,Miss,nil", v, o, err)
	}
	if computes.Load() != 2 {
		t.Fatalf("%d computes, want 2 (error must not be cached)", computes.Load())
	}
}

func TestDoPanicReleasesWaiters(t *testing.T) {
	c := New[key, int](8)
	var inFlight sync.WaitGroup
	inFlight.Add(1)
	release := make(chan struct{})
	waiterDone := make(chan error, 1)
	go func() {
		defer func() { recover() }()
		c.Do(k("k"), func() (int, error) {
			inFlight.Done()
			<-release
			panic("kaboom")
		})
	}()
	inFlight.Wait()
	go func() {
		_, _, err := c.Do(k("k"), func() (int, error) { return 1, nil })
		waiterDone <- err
	}()
	// Wait until the waiter has joined the flight (Dedups ticks on join)
	// before letting the computation panic, so it is genuinely blocked.
	for c.Stats().Dedups == 0 {
		runtime.Gosched()
	}
	close(release)
	if err := <-waiterDone; err == nil {
		t.Fatal("waiter on a panicked flight got a nil error")
	}
	// The flight is cleaned up: a fresh Do computes normally.
	if v, _, err := c.Do(k("k"), func() (int, error) { return 9, nil }); err != nil || v != 9 {
		t.Fatalf("post-panic Do = %d,%v", v, err)
	}
}

func TestConcurrentAccess(t *testing.T) {
	// Exercised further by `go test -race`: hammer the cache from many
	// goroutines and make sure counters stay coherent.
	c := New[key, int](32)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				k := key{n: i % 48}
				if v, _, err := c.Do(k, func() (int, error) { return i % 48, nil }); err != nil || v != i%48 {
					t.Errorf("key %v holds %d, %v", k, v, err)
				}
			}
		}(g)
	}
	wg.Wait()
	s := c.Stats()
	if s.Hits+s.Misses+s.Dedups != 8*200 {
		t.Fatalf("counter drift: %+v", s)
	}
	if s.Entries > 32 {
		t.Fatalf("bound exceeded: %+v", s)
	}
}

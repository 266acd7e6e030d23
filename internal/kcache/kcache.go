// Package kcache implements a bounded LRU cache with single-flight
// computation.
//
// Keys are comparable values holding the canonical parts of whatever
// produced the value (for compiled kernels: the pipeline, the normalized
// source text and the Options value itself), so two semantically identical
// compile requests collide on purpose and the second one costs a map
// lookup instead of the full pipeline. Do adds
// the thundering-herd defense a server needs: N concurrent requests for
// the same missing key perform one computation and share its result.
// The cache is safe for concurrent use and keeps hit/miss/eviction/dedup
// counters for observability.
package kcache

import (
	"container/list"
	"errors"
	"sync"
)

// DefaultEntries is the bound used when New is given a non-positive size.
const DefaultEntries = 128

// Stats is a snapshot of the cache counters.
type Stats struct {
	Hits      uint64 // Do calls that found the key resident
	Misses    uint64 // Do calls that ran the computation
	Evictions uint64 // entries dropped by the LRU bound
	Dedups    uint64 // Do calls that joined another caller's in-flight computation
	Entries   int    // entries currently resident
}

// Cache is a bounded LRU cache from K to V. The zero value
// is not usable; construct with New.
type Cache[K comparable, V any] struct {
	mu        sync.Mutex
	max       int
	ll        *list.List // front = most recently used
	items     map[K]*list.Element
	flights   map[K]*flight[V]
	hits      uint64
	misses    uint64
	evictions uint64
	dedups    uint64
}

type entry[K comparable, V any] struct {
	key K
	val V
}

// flight is one in-progress Do computation; waiters block on done and
// read val/err afterwards (the close is the happens-before edge).
type flight[V any] struct {
	done chan struct{}
	val  V
	err  error
}

// New creates a cache bounded to max entries (<= 0 means DefaultEntries).
func New[K comparable, V any](max int) *Cache[K, V] {
	if max <= 0 {
		max = DefaultEntries
	}
	return &Cache[K, V]{
		max:     max,
		ll:      list.New(),
		items:   make(map[K]*list.Element, max),
		flights: make(map[K]*flight[V]),
	}
}

// Do returns the value stored under key, computing it with fn on a miss.
// Concurrent Do calls for the same missing key are deduplicated: exactly
// one caller runs fn while the rest block and share its result (including
// its error — identical keys mean identical requests, so an error applies
// to every waiter). Errors are not cached; a later Do retries. A panic in
// fn is re-raised in the computing caller and surfaced as an error to the
// waiters, never a deadlock.
//
// The returned Outcome says how the call was served.
func (c *Cache[K, V]) Do(key K, fn func() (V, error)) (V, Outcome, error) {
	c.mu.Lock()
	if el, ok := c.items[key]; ok {
		c.hits++
		c.ll.MoveToFront(el)
		v := el.Value.(*entry[K, V]).val
		c.mu.Unlock()
		return v, Hit, nil
	}
	if f, ok := c.flights[key]; ok {
		c.dedups++
		c.mu.Unlock()
		<-f.done
		return f.val, Shared, f.err
	}
	c.misses++
	f := &flight[V]{done: make(chan struct{})}
	c.flights[key] = f
	c.mu.Unlock()

	finish := func(val V, err error) {
		c.mu.Lock()
		delete(c.flights, key)
		// A computation runs only for a key neither resident nor in
		// flight, so a success is a new entry.
		if err == nil {
			if oldest := c.ll.Back(); oldest != nil && c.ll.Len() >= c.max {
				c.ll.Remove(oldest)
				delete(c.items, oldest.Value.(*entry[K, V]).key)
				c.evictions++
			}
			c.items[key] = c.ll.PushFront(&entry[K, V]{key: key, val: val})
		}
		c.mu.Unlock()
		f.val, f.err = val, err
		close(f.done)
	}
	panicking := true
	defer func() {
		if panicking {
			// Release the waiters before the panic unwinds through the
			// caller's recovery; they get an error, not a hung channel.
			var zero V
			finish(zero, errors.New("kcache: computation panicked"))
		}
	}()
	val, err := fn()
	panicking = false
	finish(val, err)
	return val, Miss, err
}

// Outcome reports how a Do call was served.
type Outcome int

const (
	// None is the zero value: no cache took part (Do never returns it; a
	// caller that may run without a cache reports it for that case).
	None Outcome = iota
	// Miss means this caller ran the computation itself.
	Miss
	// Hit means the value was already resident.
	Hit
	// Shared means this caller joined another caller's in-flight
	// computation and shared its result.
	Shared
)

func (o Outcome) String() string {
	switch o {
	case Miss:
		return "miss"
	case Hit:
		return "hit"
	case Shared:
		return "shared"
	default:
		return "none"
	}
}

// Stats returns a snapshot of the counters.
func (c *Cache[K, V]) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return Stats{Hits: c.hits, Misses: c.misses, Evictions: c.evictions, Dedups: c.dedups, Entries: c.ll.Len()}
}

package main

import (
	"errors"
	"math"
	"strings"
	"sync"
	"testing"
	"time"
)

// fakeClock advances only when an op says so.
type fakeClock struct{ t time.Time }

func (c *fakeClock) now() time.Time { return c.t }

func fakeItems(c *fakeClock, costs ...time.Duration) []item {
	items := make([]item, len(costs))
	for i, cost := range costs {
		cost := cost
		items[i] = item{name: string(rune('a' + i)), do: func() (simFacts, error) {
			c.t = c.t.Add(cost)
			return simFacts{Executed: 1}, nil
		}}
	}
	return items
}

func TestClosedLoopStopsOnCycleBoundary(t *testing.T) {
	c := &fakeClock{t: time.Unix(0, 0)}
	items := fakeItems(c, time.Second, time.Second, time.Second)
	// 4 s falls inside the second cycle; the loop finishes that cycle.
	r := runClosed(items, 4*time.Second, nil, c.now)
	if len(r.latMs) != 6 || r.wall != 6*time.Second {
		t.Fatalf("ran %d ops in %v, want 6 ops (two whole cycles) in 6s", len(r.latMs), r.wall)
	}
	for j, i := range r.itemOf {
		if i != j%3 {
			t.Fatalf("op %d ran item %d, want the cycle order", j, i)
		}
	}
	// A boundary exactly at the duration ends the run; zero is one cycle.
	if r := runClosed(items, 3*time.Second, nil, c.now); len(r.latMs) != 3 {
		t.Errorf("duration on a boundary: %d ops, want 3", len(r.latMs))
	}
	if r := runClosed(items, 0, nil, c.now); len(r.latMs) != 3 {
		t.Errorf("zero duration: %d ops, want one warm-up cycle of 3", len(r.latMs))
	}
}

func TestClosedLoopFailsChangedFactsAndErrors(t *testing.T) {
	c := &fakeClock{t: time.Unix(0, 0)}
	calls := 0
	items := []item{
		{name: "drifts", do: func() (simFacts, error) {
			c.t = c.t.Add(time.Second)
			calls++
			return simFacts{TimeNs: float64(calls / 3)}, nil // changes on the third call
		}},
		{name: "breaks", do: func() (simFacts, error) {
			c.t = c.t.Add(time.Second)
			return simFacts{}, errors.New("boom")
		}},
	}
	r := runClosed(items, 6*time.Second, nil, c.now)
	if len(r.latMs) != 6 || r.failed != 4 {
		t.Fatalf("%d ops, %d failed; want 6 ops, 4 failed (3 errors + 1 changed fact)", len(r.latMs), r.failed)
	}
	if !strings.Contains(strings.Join(r.errs, "\n"), "not deterministic") {
		t.Errorf("errors %q do not name the determinism failure", r.errs)
	}
	// Facts known from the warm-up cycle are enforced from the first op.
	calls = 0
	if r := runClosed(items[:1], 0, []simFacts{{TimeNs: 7}}, c.now); r.failed != 1 {
		t.Errorf("known facts not enforced: %d failures, want 1", r.failed)
	}
}

func TestClosedLoopFiguresUseEachItemsFastestLatency(t *testing.T) {
	// Item a takes 1 s, then 3 s (a disturbed cycle); item b always 2 s.
	c := &fakeClock{t: time.Unix(0, 0)}
	calls := 0
	items := []item{
		{name: "a", do: func() (simFacts, error) {
			calls++
			c.t = c.t.Add(time.Duration(2*calls-1) * time.Second)
			return simFacts{}, nil
		}},
		{name: "b", do: func() (simFacts, error) {
			c.t = c.t.Add(2 * time.Second)
			return simFacts{}, nil
		}},
	}
	r := runClosed(items, 4*time.Second, nil, c.now)
	if len(r.latMs) != 4 {
		t.Fatalf("%d ops, want two cycles of two", len(r.latMs))
	}
	if best := r.itemBest(); len(best) != 2 || best[0] != 1000 || best[1] != 2000 {
		t.Errorf("fastest latency per item = %v, want [1000 2000] ms", best)
	}
	if got, want := r.opsPerSec(), 2/3.0; math.Abs(got-want) > 1e-12 {
		t.Errorf("ops per second = %v, want %v (two ops in an undisturbed 3 s cycle)", got, want)
	}
	if lat := r.latencies(); median(lat) != 1500 {
		t.Errorf("median over the cycle's items = %v, want 1500 ms", median(lat))
	}
	// Failed ops do not count as completed.
	r.failed = 1
	if got, want := r.opsPerSec(), 0.75*2/3.0; math.Abs(got-want) > 1e-12 {
		t.Errorf("ops per second with one of four ops failed = %v, want %v", got, want)
	}
}

func TestBestWindow(t *testing.T) {
	ms := func(xs ...int) []time.Duration {
		out := make([]time.Duration, len(xs))
		for i, x := range xs {
			out[i] = time.Duration(x) * time.Millisecond
		}
		return out
	}
	// Unsorted on purpose; the densest second is [900, 1900) with five events.
	done := ms(1500, 100, 900, 1000, 1100, 1899, 1900, 3000)
	if from, n := bestWindow(done, time.Second); n != 5 || from != 900*time.Millisecond {
		t.Errorf("best one-second window starts at %v with %d events, want 900ms with 5", from, n)
	}
	if _, n := bestWindow(ms(10, 20, 30), time.Second); n != 3 {
		t.Errorf("a run shorter than the window counts whole: %d, want 3", n)
	}
	// A many-caller loop takes its rate and its latencies from that second.
	r := &loopResult{done: done, latMs: []float64{5, 1, 2, 3, 4, 6, 9, 9}}
	if got := r.opsPerSec(); got != 5 {
		t.Errorf("ops per second = %v, want the 5 of the fullest second", got)
	}
	if lat := r.latencies(); len(lat) != 5 || median(lat) != 4 {
		t.Errorf("latencies of the fullest second = %v, want the five with median 4", lat)
	}
}

func TestOpenLoopChargesAStallToLaterRequests(t *testing.T) {
	// Ten requests due 5 ms apart, one in flight at a time, and the first
	// stalls for 100 ms. Timed from their due times, the later requests
	// carry the stall they waited behind; timed from dispatch they would
	// not, which is the coordinated-omission error.
	const n, gap, stall = 10, 5 * time.Millisecond, 100 * time.Millisecond
	due := make([]time.Duration, n)
	for i := range due {
		due[i] = time.Duration(i) * gap
	}
	r := runOpen(due, 1, func(i int) {
		if i == 0 {
			time.Sleep(stall)
		}
	})
	for i := 1; i < n; i++ {
		if min := stall - due[i]; r.latency[i] < min {
			t.Errorf("request %d: latency %v from its due time, want at least %v", i, r.latency[i], min)
		}
		if min := stall - due[i]; r.late[i] < min {
			t.Errorf("request %d: generator lateness %v, want at least %v", i, r.late[i], min)
		}
	}
	if r.wall < stall {
		t.Errorf("wall %v shorter than the stall", r.wall)
	}
	// Unblocked, nothing is late by anything near the stall.
	r = runOpen(due, n, func(int) {})
	for i := range due {
		if r.latency[i] >= stall {
			t.Errorf("request %d: latency %v with no stall", i, r.latency[i])
		}
	}
}

func TestCallersRunWholeCycles(t *testing.T) {
	const n = 8
	var mu sync.Mutex
	fired := make([]int, n)
	lat, _, _ := runCallers(3, n, 20*time.Millisecond, func(i int) {
		mu.Lock()
		fired[i]++
		mu.Unlock()
		time.Sleep(time.Millisecond)
	})
	if len(lat) == 0 || len(lat)%n != 0 {
		t.Fatalf("%d requests, want a positive multiple of the %d-body cycle", len(lat), n)
	}
	for i, c := range fired {
		if c != len(lat)/n {
			t.Errorf("body %d fired %d times, want %d", i, c, len(lat)/n)
		}
	}
	if lat, _, _ := runCallers(3, n, 0, func(int) {}); len(lat) != n {
		t.Errorf("zero duration: %d requests, want one cycle of %d", len(lat), n)
	}
}

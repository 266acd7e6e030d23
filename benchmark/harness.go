package main

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"time"
)

// simFacts are the simulated-clock facts of one op. They are exact: the
// compiler and the simulator are deterministic, so an op that reports
// different facts on two executions is a failed op, and the metrics built
// from them can carry a bound of zero.
type simFacts struct {
	Emitted  int64   // micro-ops in the program the op compiled
	Executed int64   // micro-ops the op's simulated passes retired (x tiles)
	TimeNs   float64 // simulated completion time of the op's passes
	EnergyPJ float64 // modelled DRAM energy of the same passes
	Detail   string  // any further exact facts (codegen stats, fault counts)
}

// simTotals are a workload's three simulated end-to-end figures.
type simTotals struct {
	Uops     int64
	TimeNs   float64
	EnergyPJ float64
}

func (t *simTotals) add(uops int, f simFacts) {
	t.Uops += int64(uops)
	t.TimeNs += f.TimeNs
	t.EnergyPJ += f.EnergyPJ
}

// item is one op of a closed-loop cycle: a call into the program under
// test that checks its own output and reports its simulated facts.
type item struct {
	name string // unique within the cycle, e.g. "DenseNet-16/ambit"
	path string // groups items for the per-path metrics, e.g. "plain"
	do   func() (simFacts, error)
}

// loopResult is what a timed region produced.
type loopResult struct {
	latMs    []float64       // per attempted op
	itemOf   []int           // one-caller closed loops: the cycle index of each op
	done     []time.Duration // many-caller closed loops: completion time of each op
	failed   int
	errs     []string // the first few failures, for the report
	wall     time.Duration
	executed int64              // simulated micro-ops retired (for sim.uops_per_s)
	facts    []simFacts         // closed loops: per item, as first seen
	extra    map[string]float64 // per-layer figures the loop itself measures
}

const maxReportedErrs = 5

// The wall-clock figures of a run are built to repeat on a machine that
// is shared: interference (a descheduled virtual CPU, a neighbour's cache
// traffic) only ever adds time to a deterministic op, so the fastest of an
// op's observations is the steadiest estimate of what the code costs, and
// the median is not - on the two shared cores this was written on, whole
// runs drift by 15 % while the per-item minimum moves by 2-5 %.
//
// A one-caller closed loop repeats a fixed cycle, so each item has one
// latency (its fastest observation) and the op mix is the distribution
// over the cycle's items. The service loops keep their samples, because
// there the wait for a slot or a batch window is the measurement; the
// many-caller loop, which runs at saturation and so feels every stolen
// cycle, takes both its rate and its latencies from its fullest second.

// itemBest returns, for a one-caller closed loop, the fastest latency of
// each of the cycle's items.
func (r *loopResult) itemBest() []float64 {
	var best []float64
	for j, i := range r.itemOf {
		for len(best) <= i {
			best = append(best, math.Inf(1))
		}
		best[i] = math.Min(best[i], r.latMs[j])
	}
	return best
}

// opsPerSec is the correct ops completed per second.
//   - one-caller closed loop: the cycle's ops over the sum of its items'
//     latencies, i.e. the rate of a cycle in which nothing interfered;
//   - many-caller closed loop: the most completions in any whole second of
//     the run (the capacity figure);
//   - open loop: ops over wall time (the schedule sets the rate).
//
// In each case scaled by the share of ops that were correct.
func (r *loopResult) opsPerSec() float64 {
	okShare := float64(len(r.latMs)-r.failed) / float64(len(r.latMs))
	switch {
	case r.itemOf != nil:
		var cycleMs float64
		best := r.itemBest()
		for _, ms := range best {
			cycleMs += ms
		}
		return okShare * float64(len(best)) / cycleMs * 1e3
	case r.done != nil:
		_, n := bestWindow(r.done, time.Second)
		return okShare * float64(n)
	default:
		return okShare * float64(len(r.latMs)) / r.wall.Seconds()
	}
}

// rateNote says in words how opsPerSec arrived at its figure.
func (r *loopResult) rateNote() string {
	switch {
	case r.itemOf != nil:
		return "the cycle's ops over the sum of its items' fastest latencies"
	case r.done != nil:
		return "the most completions in any whole second of the run"
	default:
		return "ops over wall time; the schedule sets the rate"
	}
}

// latencies are the samples op_ms_p50 and op_ms_p95 are taken over: the
// cycle's items at their fastest, the ops that completed in the fullest
// second, or every op.
func (r *loopResult) latencies() []float64 {
	switch {
	case r.itemOf != nil:
		return r.itemBest()
	case r.done != nil:
		from, n := bestWindow(r.done, time.Second)
		lat := make([]float64, 0, n)
		for i, at := range r.done {
			if at >= from && at-from < time.Second {
				lat = append(lat, r.latMs[i])
			}
		}
		return lat
	default:
		return r.latMs
	}
}

// bestWindow returns the start and the event count of the window of the
// given length that holds the most events (the whole run if it is shorter
// than one window). A window starts on an event.
func bestWindow(at []time.Duration, window time.Duration) (from time.Duration, n int) {
	s := append([]time.Duration(nil), at...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	lo := 0
	for hi := range s {
		for s[hi]-s[lo] >= window {
			lo++
		}
		if hi-lo+1 > n {
			from, n = s[lo], hi-lo+1
		}
	}
	return from, n
}

func (r *loopResult) fail(err error) {
	r.failed++
	if len(r.errs) < maxReportedErrs {
		r.errs = append(r.errs, err.Error())
	}
}

// runClosed drives the cycle with one caller: items in order, over and
// over, stopping at the first cycle boundary at or after d, so every run
// executes the same op mix. d = 0 is exactly one cycle (the warm-up).
// known carries facts from an earlier loop over the same items (nil for
// none); an op whose facts differ from its item's known facts fails.
func runClosed(items []item, d time.Duration, known []simFacts, now func() time.Time) *loopResult {
	r := &loopResult{facts: make([]simFacts, len(items))}
	seen := make([]bool, len(items))
	if known != nil {
		copy(r.facts, known)
		for i := range seen {
			seen[i] = true
		}
	}
	start := now()
	for {
		for i := range items {
			t0 := now()
			f, err := items[i].do()
			r.latMs = append(r.latMs, float64(now().Sub(t0))/1e6)
			r.itemOf = append(r.itemOf, i)
			switch {
			case err != nil:
				r.fail(fmt.Errorf("%s: %w", items[i].name, err))
			case !seen[i]:
				seen[i], r.facts[i] = true, f
			case f != r.facts[i]:
				r.fail(fmt.Errorf("%s: not deterministic: facts %+v, earlier %+v", items[i].name, f, r.facts[i]))
			}
			r.executed += f.Executed
		}
		if r.wall = now().Sub(start); r.wall >= d {
			return r
		}
	}
}

// openResult is what an open-loop region produced, per request.
type openResult struct {
	latency []time.Duration // completion minus due time
	late    []time.Duration // dispatch minus due time: how late the generator ran
	wall    time.Duration   // start to last completion
}

// runOpen fires request i at start+due[i] whether or not earlier requests
// have completed, with at most maxOutstanding in flight (when the cap
// binds, the wait shows as lateness). Latency is timed from the due time,
// so a stall is charged to every request it delayed, not only to the one
// that hit it. The generator sleeps to each due time, and an idle Go
// runtime wakes a sleeper on a whole millisecond, so every request is
// dispatched up to a millisecond late and that lateness is in its latency
// (loadgen.late_ms_p95 reports it). Yielding the processor until the due
// time instead would remove it, at the price of a generator that keeps one
// of the two processors busy next to the service it measures.
func runOpen(due []time.Duration, maxOutstanding int, fire func(i int)) *openResult {
	r := &openResult{latency: make([]time.Duration, len(due)), late: make([]time.Duration, len(due))}
	slots := make(chan struct{}, maxOutstanding) // counting semaphore
	var wg sync.WaitGroup
	start := time.Now()
	for i, at := range due {
		if wait := at - time.Since(start); wait > 0 {
			time.Sleep(wait)
		}
		slots <- struct{}{}
		r.late[i] = time.Since(start) - at
		wg.Add(1)
		go func(i int, at time.Duration) {
			defer wg.Done()
			fire(i)
			r.latency[i] = time.Since(start) - at
			<-slots
		}(i, at)
	}
	wg.Wait()
	r.wall = time.Since(start)
	return r
}

// runCallers drives a closed loop with several callers over a cycle of n
// bodies: each caller takes the next index, fires it and waits for the
// reply. Callers stop at the first cycle boundary at or after d, so the
// request mix is whole cycles. It returns, per request, the latency and
// the completion time since the start, and the wall time.
func runCallers(callers, n int, d time.Duration, fire func(i int)) (latMs []float64, done []time.Duration, wall time.Duration) {
	var (
		mu    sync.Mutex
		next  int
		limit = -1 // index at which dispatch stops, once known
		wg    sync.WaitGroup
	)
	start := time.Now()
	take := func() (int, bool) {
		mu.Lock()
		defer mu.Unlock()
		if limit < 0 && time.Since(start) >= d {
			limit = max((next+n-1)/n*n, n)
		}
		if limit >= 0 && next >= limit {
			return 0, false
		}
		i := next
		next++
		return i, true
	}
	type sample struct {
		latMs float64
		done  time.Duration
	}
	perCaller := make([][]sample, callers)
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for {
				i, ok := take()
				if !ok {
					return
				}
				t0 := time.Now()
				fire(i % n)
				end := time.Now()
				perCaller[c] = append(perCaller[c], sample{float64(end.Sub(t0)) / 1e6, end.Sub(start)})
			}
		}(c)
	}
	wg.Wait()
	wall = time.Since(start)
	for _, l := range perCaller {
		for _, sm := range l {
			latMs, done = append(latMs, sm.latMs), append(done, sm.done)
		}
	}
	return latMs, done, wall
}

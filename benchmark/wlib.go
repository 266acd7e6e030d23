package main

import (
	"fmt"
	"runtime"
	"time"

	"chopper"
	"chopper/internal/dram"
	"chopper/internal/sim"
	"chopper/internal/vircoe"
)

// env is what every workload derives its inputs and references from.
type env struct {
	seed     int64
	duration time.Duration // of the timed region (the open-loop schedule is drawn for it)
	oracle   *oracle
}

// prepared is a workload after its prepare phase: everything built, not
// yet warmed. The run drives it in this order: warmup, check, measure (or
// traced), post, close.
type prepared interface {
	// fingerprint names the exact facts prepare produced (kernel sizes);
	// repeated prepares of one run must agree on it.
	fingerprint() string
	// warmup runs one untimed cycle: pools, decoded streams, caches fill.
	warmup() error
	// check is the correctness stage before the timed region: it
	// establishes every reference and returns the simulated totals.
	check() (simTotals, error)
	// measure runs the timed region for (at least) d.
	measure(d time.Duration) *loopResult
	// traced runs the per-layer pass instead of measure; d bounds a
	// service workload's traced region.
	traced(tr *tracer, d time.Duration) (map[string]float64, *loopResult, error)
	// close releases what prepare started.
	close()
}

// opObs is what the latest execution of an item observed beyond its
// simFacts; the traced run builds the per-layer counts from it.
type opObs struct {
	eng        dram.EngineStats
	emit       vircoe.Stats
	transferNs float64
	overlapNs  float64
	simNs      float64 // simulated completion time of the op's pass
	scratch    int64
	rec        chopper.RecoveryStats
	faults     int
	degraded   bool
}

// libItem is an item of a library workload's cycle with its staged
// re-drive.
type libItem struct {
	item
	obs   *opObs
	stage func(sc *stageCtx, itemName string, root int) error
}

// cycle is a closed-loop library workload: one caller, a fixed cycle.
type cycle struct {
	name    string
	items   []libItem
	fp      string
	kernels []*chopper.Kernel // kernels the run items execute (decoded once per staged cycle)
	checkFn func() (simTotals, error)
	cache   *chopper.KernelCache // compile_variants' cache, for the kcache shares

	known []simFacts // per item, from the warm-up cycle
}

func (c *cycle) fingerprint() string { return c.fp }
func (c *cycle) close()              {}

func (c *cycle) plain() []item {
	items := make([]item, len(c.items))
	for i := range c.items {
		items[i] = c.items[i].item
	}
	return items
}

func (c *cycle) warmup() error {
	r := runClosed(c.plain(), 0, nil, time.Now)
	if r.failed > 0 {
		return fmt.Errorf("warm-up cycle: %s", r.errs[0])
	}
	c.known = r.facts
	return nil
}

func (c *cycle) check() (simTotals, error) { return c.checkFn() }

func (c *cycle) measure(d time.Duration) *loopResult {
	return runClosed(c.plain(), d, c.known, time.Now)
}

// traced times publicCycles cycles through the public API item by item,
// then re-drives stagedCycles cycles stage by stage, and derives the
// per-layer metrics from the two.
func (c *cycle) traced(tr *tracer, _ time.Duration) (map[string]float64, *loopResult, error) {
	items := c.plain()
	perItem := make([][]float64, len(items))
	total := &loopResult{}
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	for rep := 0; rep < publicCycles; rep++ {
		r := runClosed(items, 0, c.known, time.Now)
		for j, i := range r.itemOf {
			perItem[i] = append(perItem[i], r.latMs[j])
		}
		total.latMs = append(total.latMs, r.latMs...)
		total.itemOf = append(total.itemOf, r.itemOf...)
		total.failed += r.failed
		total.errs = append(total.errs, r.errs...)
		total.wall += r.wall
		total.executed += r.executed
	}
	runtime.ReadMemStats(&ms1)
	publicMs := make([]float64, len(items))
	for i := range perItem {
		publicMs[i] = median(perItem[i])
	}

	sc := newStageCtx(tr)
	var counts map[string]float64
	stagedWall := make([]time.Duration, stagedCycles)
	for cyc := 0; cyc < stagedCycles; cyc++ {
		tr.stamp(c.name, cyc)
		sc.counts = map[string]float64{}
		sc.decoded = map[*chopper.Kernel]*sim.Decoded{}
		t0 := time.Now()
		if len(c.kernels) > 0 {
			root := tr.begin("item", setupItem, -1)
			for i, k := range c.kernels {
				sc.decoded[k] = sc.decode(fmt.Sprintf("%s%d", setupItem, i), root, k)
			}
			tr.end(root, 0, "")
		}
		for i := range c.items {
			it := &c.items[i]
			root := tr.begin("item", it.name, -1)
			err := it.stage(sc, it.name, root)
			tr.end(root, 0, "")
			if err != nil {
				return nil, total, fmt.Errorf("staged %s: %w", it.name, err)
			}
		}
		stagedWall[cyc] = time.Since(t0)
		counts = sc.counts
	}
	m := c.layerMetrics(tr, publicMs, counts)
	m["sim.allocs_per_run"] = float64(ms1.Mallocs-ms0.Mallocs) / float64(publicCycles*len(items))
	var pub float64
	for _, v := range publicMs {
		pub += v
	}
	if pub > 0 {
		m["trace.overhead_share"] = (float64(stagedWall[stagedCycles-1])/1e6 - pub) / pub
	}
	return m, total, nil
}

// setupItem prefixes the spans of per-cycle set-up work (decoding), which
// the public API pays once per kernel, not per op.
const setupItem = "setup/decode"

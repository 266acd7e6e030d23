// Package fault provides deterministic, seedable fault models for the
// functional PUD simulator. Real processing-using-DRAM substrates are not
// the perfect bit-matrices the functional model assumes: triple-row
// activation (TRA) and in-DRAM row copy (AAP) are analog charge-sharing
// operations whose error rates depend on which rows and bitlines
// participate, DRAM cells leak charge between refreshes, and manufacturing
// defects leave individual bitlines stuck. The Injector wraps the
// simulator's row operations with four independently parameterizable
// models of those effects:
//
//   - TRA charge-sharing flips: each AP (triple-row activation) suffers a
//     single-lane upset of its majority result with a configurable per-op
//     probability;
//   - row-copy corruption: each AAP copy suffers a single-lane flip of the
//     copied payload with a configurable per-op probability;
//   - stuck-at bitline columns: a fixed set of lanes is forced to 0 or 1
//     on every row store (a permanent defect, not a transient event);
//   - retention decay: a row that sits idle (neither loaded nor stored)
//     longer than a refresh threshold suffers a single-lane flip, with a
//     configurable probability, when it is next sensed.
//
// Every transient decision is drawn from a stateless hash of
// (seed, op index, fault kind, row), so injection is fully reproducible:
// identical Config and seed produce identical per-lane corruption on
// identical programs, regardless of how many other fault models are
// enabled alongside.
package fault

import (
	"chopper/internal/isa"
)

// StuckColumn describes a permanently defective bitline: lane Lane reads
// and writes as the constant High on every stored row.
type StuckColumn struct {
	Lane int
	High bool
}

// Config parameterizes the fault models. The zero value injects nothing.
type Config struct {
	// TRAFlipRate is the per-AP probability that the TRA result suffers a
	// one-lane flip (the charge-sharing consensus resolves wrongly on one
	// bitline). The flipped value lands in all three participating rows,
	// as it would physically.
	TRAFlipRate float64

	// CopyFlipRate is the per-AAP probability that the copied row suffers
	// a one-lane flip in transit through the row buffer.
	CopyFlipRate float64

	// RetentionRate is the probability that a row idle for more than
	// RefreshOps micro-ops suffers a one-lane decay flip when next
	// sensed. Ignored unless RefreshOps > 0.
	RetentionRate float64
	// RefreshOps is the idle threshold, in micro-ops, beyond which a row
	// becomes vulnerable to retention decay. 0 disables the model.
	RefreshOps int

	// StuckColumns lists permanently defective bitlines, applied on every
	// row store outside the C-group. Stuck lanes are defects, not events:
	// they ignore MaxFaults/FirstOp and are tallied separately.
	StuckColumns []StuckColumn

	// MaxFaults caps the number of injected transient events (TRA, copy
	// and decay flips). 0 means unlimited. MaxFaults=1 with a rate of 1
	// yields a deterministic single-fault run.
	MaxFaults int
	// FirstOp suppresses transient injection before the given op index,
	// so single faults can be aimed at a chosen point of the program.
	FirstOp int
}

// Enabled reports whether any fault model is active.
func (c Config) Enabled() bool {
	return c.TRAFlipRate > 0 || c.CopyFlipRate > 0 ||
		(c.RetentionRate > 0 && c.RefreshOps > 0) || len(c.StuckColumns) > 0
}

// Counts tallies injected faults by model.
type Counts struct {
	TRAFlips   int // charge-sharing upsets of AP results
	CopyFlips  int // AAP payload corruptions
	DecayFlips int // retention-decay flips
	StuckLanes int // lane values forced by stuck-at columns
}

// Total sums all injected fault events.
func (c Counts) Total() int { return c.TRAFlips + c.CopyFlips + c.DecayFlips + c.StuckLanes }

// Add accumulates other into c.
func (c *Counts) Add(other Counts) {
	c.TRAFlips += other.TRAFlips
	c.CopyFlips += other.CopyFlips
	c.DecayFlips += other.DecayFlips
	c.StuckLanes += other.StuckLanes
}

// Injector implements the simulator's fault hook (sim.FaultHook) for one
// subarray. It is not safe for concurrent use; give each subarray its own.
//
// It also implements the simulator's EpochHook: the recovery layer
// checkpoints the injector at epoch boundaries, restores it on rollback,
// and salts each retry attempt so a replayed epoch faces an independent
// transient-fault draw (the stateless hash would otherwise re-inject the
// identical faults on every retry and recovery could never converge).
type Injector struct {
	cfg    Config
	seed   uint64
	spent  int
	last   clock // op index of each row's most recent access
	counts Counts

	// attemptSalt is folded into every transient roll. Zero for attempt 0
	// of every epoch, so a recovery run that never retries draws byte for
	// byte the fault pattern a recovery-free run would.
	attemptSalt uint64

	// Epoch checkpoint storage (EpochCheckpoint/EpochRestore), reused
	// across epochs, so steady-state snapshots allocate nothing.
	ckLast   clock
	ckSpent  int
	ckCounts Counts
}

// clock is the injector's per-row access clock. It runs on every sense and
// store of a subarray row — a special row or a D row, the only rows the
// simulator has — so it is one table in the simulator's arena layout (the
// special rows, then the D rows), holding 1 + the op index of the row's
// last access, 0 for a row never accessed (op indices restart every trial
// and stay far below 2^31).
type clock struct {
	dense []int32
}

// index is r's table slot.
func index(r isa.Row) int {
	if r < 0 {
		return -1 - int(r)
	}
	return int(-isa.DCC1N) + int(r)
}

func (c *clock) get(r isa.Row) (int, bool) {
	if i := index(r); i < len(c.dense) && c.dense[i] != 0 {
		return int(c.dense[i]) - 1, true
	}
	return 0, false
}

func (c *clock) set(r isa.Row, opIdx int) {
	i := index(r)
	if i >= len(c.dense) {
		c.dense = append(c.dense, make([]int32, i+1-len(c.dense))...)
	}
	c.dense[i] = int32(opIdx) + 1
}

// setAll restarts every accessed row's clock at opIdx and returns how many
// rows that is.
func (c *clock) setAll(opIdx int) int {
	n := 0
	for i, t := range c.dense {
		if t != 0 {
			c.dense[i] = int32(opIdx) + 1
			n++
		}
	}
	return n
}

func (c *clock) reset() { clear(c.dense) }

// copyFrom makes c a copy of src, reusing c's storage.
func (c *clock) copyFrom(src *clock) { c.dense = append(c.dense[:0], src.dense...) }

// New creates an injector for cfg, reproducible from seed.
func New(cfg Config, seed int64) *Injector {
	in := &Injector{}
	in.Reset(cfg, seed)
	return in
}

// Reset re-arms the injector for a new trial under (cfg, seed), clearing
// all counters and retention state while keeping its storage. A reset
// injector is indistinguishable from New(cfg, seed) — the fault sequence
// is a stateless hash of (seed, op index), not of injector history — which
// is what lets reliability sweeps pool injectors across trials.
func (in *Injector) Reset(cfg Config, seed int64) {
	in.cfg = cfg
	in.seed = mix(uint64(seed) ^ 0x9e3779b97f4a7c15)
	in.spent = 0
	in.last.reset()
	in.counts = Counts{}
	in.attemptSalt = 0
	in.ckLast.reset()
	in.ckSpent = 0
	in.ckCounts = Counts{}
}

// Events is the simulator events the injector's enabled models need (the
// sim.FaultHook subscription): loads and stores when retention decay or
// stuck columns are on — those models and the access clocks decay reads
// live there — copies and computes when their flip rate is non-zero. Every
// other call would change neither the data nor the injector.
func (in *Injector) Events() isa.Events {
	var ev isa.Events
	if (in.cfg.RetentionRate > 0 && in.cfg.RefreshOps > 0) || len(in.cfg.StuckColumns) > 0 {
		ev |= isa.EvLoad | isa.EvStore
	}
	if in.cfg.CopyFlipRate > 0 {
		ev |= isa.EvCopy
	}
	if in.cfg.TRAFlipRate > 0 {
		ev |= isa.EvCompute
	}
	return ev
}

// Counts returns the faults injected so far.
func (in *Injector) Counts() Counts { return in.counts }

// Fault event kinds, salted into the per-event hash so co-enabled models
// draw independent randomness.
const (
	kindTRA uint64 = iota + 1
	kindCopy
	kindDecay
)

// mix is the splitmix64 finalizer: a strong stateless 64-bit mixer.
func mix(x uint64) uint64 {
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}

// roll draws the event hash for (op, kind, row-salt). The attempt salt is
// zero outside epoch retries, so the draw is unchanged for ordinary runs.
func (in *Injector) roll(kind uint64, opIdx int, salt uint64) uint64 {
	return mix(in.seed ^ in.attemptSalt ^ mix(uint64(opIdx)+1) ^ mix(kind<<32^salt))
}

// fires converts the hash's top 53 bits into a uniform [0,1) draw.
func fires(p float64, h uint64) bool {
	return p > 0 && float64(h>>11)/(1<<53) < p
}

// budget reports whether a transient fault may fire at opIdx.
func (in *Injector) budget(opIdx int) bool {
	if opIdx < in.cfg.FirstOp {
		return false
	}
	return in.cfg.MaxFaults <= 0 || in.spent < in.cfg.MaxFaults
}

// flipLane flips the hash-chosen lane of data.
func flipLane(data []uint64, h uint64, lanes int) {
	lane := int(h % uint64(lanes))
	data[lane/64] ^= 1 << uint(lane%64)
}

// BeforeLoad is called when a row is about to be sensed; it materializes
// retention decay on rows idle beyond the refresh threshold and refreshes
// the row's access time (sensing restores the charge).
func (in *Injector) BeforeLoad(opIdx int, r isa.Row, data []uint64, lanes int) {
	if in.cfg.RefreshOps > 0 && in.cfg.RetentionRate > 0 {
		if lastT, seen := in.last.get(r); seen && opIdx-lastT > in.cfg.RefreshOps && in.budget(opIdx) {
			h := in.roll(kindDecay, opIdx, uint64(int64(r)))
			if fires(in.cfg.RetentionRate, h) {
				flipLane(data, mix(h), lanes)
				in.spent++
				in.counts.DecayFlips++
			}
		}
	}
	in.last.set(r, opIdx)
}

// AfterCompute perturbs a TRA (AP) result before it latches back into the
// participating rows: a charge-sharing upset flips one lane's consensus.
func (in *Injector) AfterCompute(opIdx int, data []uint64, lanes int) {
	if in.cfg.TRAFlipRate <= 0 || !in.budget(opIdx) { // a zero rate never fires
		return
	}
	h := in.roll(kindTRA, opIdx, 0)
	if !fires(in.cfg.TRAFlipRate, h) {
		return
	}
	flipLane(data, mix(h), lanes)
	in.spent++
	in.counts.TRAFlips++
}

// AfterCopy perturbs an AAP payload in the row buffer before it is stored
// into the destination rows.
func (in *Injector) AfterCopy(opIdx int, data []uint64, lanes int) {
	if in.cfg.CopyFlipRate <= 0 || !in.budget(opIdx) { // a zero rate never fires
		return
	}
	h := in.roll(kindCopy, opIdx, 0)
	if !fires(in.cfg.CopyFlipRate, h) {
		return
	}
	flipLane(data, mix(h), lanes)
	in.spent++
	in.counts.CopyFlips++
}

// EpochCheckpoint snapshots the injector's trial state — transient-budget
// spend, per-model tallies and the retention timestamps — at an epoch
// boundary, and rewinds the attempt salt so the epoch's first execution
// draws exactly the fault pattern a recovery-free run would. Snapshot
// storage is reused across epochs; the steady state allocates nothing.
func (in *Injector) EpochCheckpoint() {
	in.ckLast.copyFrom(&in.last)
	in.ckSpent = in.spent
	in.ckCounts = in.counts
	in.attemptSalt = 0
}

// EpochRestore rewinds the injector to the last EpochCheckpoint and arms
// retry attempt `attempt`: attempt 0 reproduces the original draw byte for
// byte, while attempt n > 0 salts every transient roll with a value derived
// from n, so each replay of the epoch faces an independent fault pattern.
// Permanent defects (stuck-at columns) are configuration, not state, and
// re-apply identically on every attempt — which is what makes them
// detectable but uncorrectable by replay.
func (in *Injector) EpochRestore(attempt int) {
	in.last.copyFrom(&in.ckLast)
	in.spent = in.ckSpent
	in.counts = in.ckCounts
	if attempt == 0 {
		in.attemptSalt = 0
	} else {
		in.attemptSalt = mix(uint64(attempt) * 0x9e3779b97f4a7c15)
	}
}

// Scrub models a retention scrub pass issued at opIdx: every tracked row is
// re-sensed and its charge restored, so decay idle clocks restart from the
// scrub point — a row cannot decay during the retried epoch unless it sits
// idle past the refresh threshold again. Returns the number of rows
// refreshed.
func (in *Injector) Scrub(opIdx int) int {
	return in.last.setAll(opIdx)
}

// AfterStore applies persistent bitline defects to a freshly stored row
// and records the access. C-group constant rows are architectural
// references outside the data bitline array and are exempt.
func (in *Injector) AfterStore(opIdx int, r isa.Row, data []uint64, lanes int) {
	if len(in.cfg.StuckColumns) > 0 && !r.IsCGroup() {
		for _, sc := range in.cfg.StuckColumns {
			if sc.Lane < 0 || sc.Lane >= lanes {
				continue
			}
			w, b := sc.Lane/64, uint(sc.Lane%64)
			if (data[w]>>b&1 == 1) != sc.High {
				data[w] ^= 1 << b
				in.counts.StuckLanes++
			}
		}
	}
	in.last.set(r, opIdx)
}

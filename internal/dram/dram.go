// Package dram models the DRAM device that hosts Bit-serial SIMD PUD
// computation: its geometry (channel/rank/bank/subarray/row/bitline), its
// DDR4 command timing, and a command-level timing engine that accounts for
// Bank-Level Parallelism (BLP) and, optionally, Subarray-Level Parallelism
// (SALP) in the style of Kim et al. (ISCA 2012).
//
// The engine is deliberately command-level rather than cycle-level: every
// figure in the CHOPPER evaluation is driven by the number of AAP/AP/transfer
// commands issued per subarray and by how transfers overlap computation, so a
// model of per-command latencies plus shared-bus serialization reproduces the
// quantities the paper measures.
package dram

import (
	"context"
	"fmt"

	"chopper/internal/guard"
	"chopper/internal/isa"
)

// Geometry describes the DRAM organization visible to the compiler.
type Geometry struct {
	Banks        int // banks per rank (evaluation default: 16)
	SubarraysPB  int // subarrays per bank
	RowsPerSub   int // rows per subarray (512 / 1024 / 2048 in Fig. 11)
	RowBytes     int // bytes per row (8 KB in the evaluation)
	ReservedRows int // rows reserved for C-group + B-group bookkeeping

	// Channels is the number of independent memory channels, each with
	// its own command/data bus and its own set of Banks banks. A
	// multi-channel device holds Channels x Banks x SubarraysPB
	// subarrays, and streams bound to different channels share no
	// timing resources at all (the tiled path replays each channel on
	// its own Engine). The zero value means 1, so every geometry built
	// before channels existed keeps its exact capacity and timing.
	Channels int
}

// ChannelCount returns the effective channel count (the zero value of
// Channels means one channel).
func (g Geometry) ChannelCount() int {
	if g.Channels < 1 {
		return 1
	}
	return g.Channels
}

// DefaultGeometry returns the evaluation default: 16 banks, 64 subarrays per
// bank, 1024 rows per subarray, 8 KB rows. Of the 1024 rows, 18 are reserved
// (2 C-group + 16 B-group), leaving 1006 D-group rows, matching the Ambit
// row-address split described in the paper.
func DefaultGeometry() Geometry {
	return Geometry{Banks: 16, SubarraysPB: 64, RowsPerSub: 1024, RowBytes: 8192, ReservedRows: 18}
}

// WithRowsPerSub returns a copy with the subarray size changed while keeping
// the total per-bank capacity fixed (as Fig. 11 does): halving the rows per
// subarray doubles the subarray count. When rows does not divide the per-bank
// capacity, the subarray count is EXPLICITLY rounded down (never below 1) and
// the remainder capacity is dropped — use WithRowsPerSubChecked to surface
// that as an error instead. rows must be positive; non-positive values panic
// with a descriptive message (they previously crashed with a bare
// divide-by-zero).
func (g Geometry) WithRowsPerSub(rows int) Geometry {
	g2, err := g.WithRowsPerSubChecked(rows)
	if err == nil {
		return g2
	}
	if rows <= 0 {
		panic(fmt.Sprintf("dram: WithRowsPerSub(%d): rows must be positive", rows))
	}
	// Non-dividing rows: round the subarray count down, documented above.
	total := g.SubarraysPB * g.RowsPerSub
	g.RowsPerSub = rows
	g.SubarraysPB = total / rows
	if g.SubarraysPB < 1 {
		g.SubarraysPB = 1
	}
	return g
}

// WithRowsPerSubChecked is WithRowsPerSub with validation instead of
// rounding: it errors when rows is non-positive, when rows does not divide
// the per-bank row capacity (the silent-capacity-loss case), or when the
// resulting geometry has no usable data rows.
func (g Geometry) WithRowsPerSubChecked(rows int) (Geometry, error) {
	if rows <= 0 {
		return Geometry{}, fmt.Errorf("dram: WithRowsPerSub(%d): rows must be positive", rows)
	}
	total := g.SubarraysPB * g.RowsPerSub
	if total%rows != 0 {
		return Geometry{}, fmt.Errorf("dram: WithRowsPerSub(%d): %d rows per bank is not divisible; %d rows of capacity would be dropped",
			rows, total, total%rows)
	}
	g.RowsPerSub = rows
	g.SubarraysPB = total / rows
	if err := g.Validate(); err != nil {
		return Geometry{}, fmt.Errorf("dram: WithRowsPerSub(%d): %w", rows, err)
	}
	return g, nil
}

// DRows returns the number of usable data rows per subarray.
func (g Geometry) DRows() int { return g.RowsPerSub - g.ReservedRows }

// Bitlines returns the SIMD width of one subarray in lanes (bitlines).
func (g Geometry) Bitlines() int { return g.RowBytes * 8 }

// Validate rejects degenerate geometries.
func (g Geometry) Validate() error {
	if g.Banks <= 0 || g.SubarraysPB <= 0 || g.RowBytes <= 0 {
		return fmt.Errorf("dram: non-positive geometry %+v", g)
	}
	if g.Channels < 0 {
		return fmt.Errorf("dram: negative channel count %d", g.Channels)
	}
	if g.DRows() <= 0 {
		return fmt.Errorf("dram: no data rows left (rows=%d reserved=%d)", g.RowsPerSub, g.ReservedRows)
	}
	return nil
}

// Timing holds per-command latencies for one PUD architecture on a DDR4-2400
// substrate. All values are in nanoseconds.
type Timing struct {
	TRCD float64 // ACTIVATE to column command
	TRAS float64 // ACTIVATE to PRECHARGE
	TRP  float64 // PRECHARGE period
	TRC  float64 // full row cycle (TRAS + TRP)

	AAP float64 // row-copy (ACTIVATE-ACTIVATE-PRECHARGE)
	AP  float64 // triple-row activation compute step

	// RowXferNs is the pure bus-transfer time for one row (RowBytes over
	// the DDR4-2400 channel), excluding the activation overhead, which is
	// added separately because under BLP the activation happens inside the
	// target bank while the bus is busy with another bank's burst.
	RowXferNs float64
	// XferOverheadNs is the per-row activation + command overhead of a
	// host transfer (tRCD + tRP amortized over a full-row burst).
	XferOverheadNs float64

	// Per-command energies in picojoules. In-DRAM computation costs row
	// activations; host transfers additionally pay I/O energy per bit —
	// the dominant term, and the reason processing-using-DRAM saves
	// energy at all.
	AAPEnergyPJ  float64
	APEnergyPJ   float64
	XferEnergyPJ float64 // full-row transfer over the channel
}

// DDR4-2400 base timings (ns), CL17 speed grade.
const (
	ddr4TRCD = 14.16
	ddr4TRAS = 32.0
	ddr4TRP  = 14.16
	ddr4TRC  = ddr4TRAS + ddr4TRP

	// 19.2 GB/s channel; one 8 KB row burst = 8192 / 19.2 ns/B.
	ddr4RowXfer8K = 8192.0 / 19.2

	// Refresh: one tRFC-long all-bank refresh every tREFI (8 Gb devices).
	ddr4TRFC  = 350.0
	ddr4TREFI = 7800.0
)

// RefreshOverhead is the fraction of time the device is unavailable due to
// periodic refresh; the engine stretches makespans by 1 + this factor.
// Bit-serial PUD architectures keep standard refresh (their cells are
// ordinary DRAM cells), so compute time dilates the same way.
const RefreshOverhead = ddr4TRFC / ddr4TREFI

// IssueGapNs is the minimum spacing between consecutive command issues:
// one DDR4-2400 clock. The engine and VIRCOE's emitter both space by it.
const IssueGapNs = 0.833

// TimingFor returns the command timing table for arch. The relative costs
// follow the source papers: Ambit's AAP takes roughly two back-to-back row
// activations plus a precharge; its AP (TRA) is one row cycle. ELP2IM
// performs logic with precharge-unit state in the local row buffer and so
// avoids one full activation per operation relative to Ambit. SIMDRAM uses
// the Ambit substrate (identical command costs) but needs fewer commands per
// arithmetic op because majority is its primitive — that difference
// materializes in code generation, not in this table.
func TimingFor(arch isa.Arch, g Geometry) Timing {
	scale := float64(g.RowBytes) / 8192.0
	t := Timing{
		TRCD: ddr4TRCD, TRAS: ddr4TRAS, TRP: ddr4TRP, TRC: ddr4TRC,
		RowXferNs:      ddr4RowXfer8K * scale,
		XferOverheadNs: ddr4TRCD + ddr4TRP,
	}
	// One full-row activate/precharge cycle moves ~RowBytes of charge:
	// about 909 pJ for an 8 KB row on DDR4; channel I/O costs ~16 pJ/bit.
	actPJ := 909.0 * scale
	ioPJ := 16.0 * float64(g.RowBytes) * 8
	switch arch {
	case isa.Ambit, isa.SIMDRAM:
		t.AAP = 2*ddr4TRAS + ddr4TRP // 78.2 ns
		t.AP = ddr4TRC               // 46.2 ns
		t.AAPEnergyPJ = 2 * actPJ
		t.APEnergyPJ = 3 * actPJ // triple-row activation
	case isa.ELP2IM:
		// ELP2IM's pseudo-precharge scheme removes one activation from
		// the copy path and shortens the compute step, which is where
		// its energy savings come from.
		t.AAP = ddr4TRAS + ddr4TRP + 0.5*ddr4TRAS // 62.2 ns
		t.AP = ddr4TRAS + 0.5*ddr4TRP             // 39.1 ns
		t.AAPEnergyPJ = 1.5 * actPJ
		t.APEnergyPJ = 1.5 * actPJ
	default:
		panic(fmt.Sprintf("dram: unknown arch %v", arch))
	}
	t.XferEnergyPJ = actPJ + ioPJ
	return t
}

// OpLatency returns the latency in nanoseconds of a single micro-op,
// excluding any SSD time (spill ops report only their DRAM/bus component;
// the SSD component is charged by the ssd package).
func (t Timing) OpLatency(op *isa.Op) float64 {
	switch op.Kind {
	case isa.OpAAP:
		return t.AAP
	case isa.OpAP:
		return t.AP
	case isa.OpWrite, isa.OpRead, isa.OpSpillOut, isa.OpSpillIn:
		return t.RowXferNs + t.XferOverheadNs
	}
	return 0
}

// OpEnergyPJ returns the energy of one micro-op in picojoules (excluding
// any SSD component).
func (t Timing) OpEnergyPJ(op *isa.Op) float64 {
	switch op.Kind {
	case isa.OpAAP:
		return t.AAPEnergyPJ
	case isa.OpAP:
		return t.APEnergyPJ
	case isa.OpWrite, isa.OpRead, isa.OpSpillOut, isa.OpSpillIn:
		return t.XferEnergyPJ
	}
	return 0
}

// BusLatency returns the time the op occupies the shared channel bus
// (zero for in-subarray computation).
func (t Timing) BusLatency(op *isa.Op) float64 {
	if op.IsTransfer() {
		return t.RowXferNs
	}
	return 0
}

// Placed is a micro-op bound to a physical subarray.
type Placed struct {
	Bank     int
	Subarray int
	Op       isa.Op
}

// Engine computes the makespan of a placed micro-op stream. Resources:
//
//   - the host issues commands IN ORDER: an op cannot start before the
//     previous op in the stream has started (plus a small issue gap). This
//     models the sequential command stream a host program produces, and is
//     why code emission order — what VIRCOE optimizes — matters: a transfer
//     buried behind another subarray's compute tail cannot start early;
//   - the channel bus is shared by all transfers (WRITE/READ/SPILL);
//   - without SALP, each bank executes one command at a time;
//   - with SALP, each subarray executes one command at a time and the
//     bank-level constraint is relaxed to the subarray level (the global
//     structures a bank still shares are folded into the per-op latencies).
//
// Ops must be presented in issue order; the engine preserves per-subarray
// program order regardless of resource availability.
//
// Every placement must be one of the Geometry's subarrays: scheduling state
// lives in slices sized from it (one slot per bank x subarray), so issuing a
// command performs no map operations and no allocation, and issuing one
// elsewhere panics.
type Engine struct {
	geom   Geometry
	timing Timing
	salp   bool

	busFree   float64
	lastStart float64
	now       float64

	unit   []float64 // next-free time per unit (bank, or subarray with SALP)
	subSeq []float64 // per-subarray completion (program order)
	seen   []bool    // unit ever issued to (drives DistinctUnit)

	// Per-OpKind latency/bus/energy tables, precomputed from the Timing so
	// the issue path does no switch dispatch (an unknown kind costs zero,
	// as in Timing.OpLatency).
	latByKind    [isa.NumOpKinds]float64
	busByKind    [isa.NumOpKinds]float64
	energyByKind [isa.NumOpKinds]float64
	xferByKind   [isa.NumOpKinds]bool

	// SSDDelay, when non-nil, is consulted for the extra latency of spill
	// ops; it receives the direction, the spill slot, and the time the
	// request reaches the SSD, and returns the extra nanoseconds beyond
	// the DRAM/bus component. Wired to the ssd package by the engine's owner
	// (internal/bench's wave timing) so this package stays dependency-light.
	SSDDelay func(out bool, slot uint64, startNs float64) float64

	stats EngineStats
}

// EngineStats aggregates what the engine observed; used by the breakdown
// experiments.
type EngineStats struct {
	Ops          int
	Transfers    int
	ComputeNs    float64 // sum of compute-op latencies (ignores overlap)
	TransferNs   float64 // sum of transfer-op latencies (ignores overlap)
	SSDNs        float64 // sum of SSD components of spills
	BusBusyNs    float64
	MakespanNs   float64
	SpillIns     int
	SpillOuts    int
	EnergyPJ     float64 // DRAM energy (activations + channel I/O)
	MaxUnitBusy  float64
	UnitBusySum  float64
	DistinctUnit int
	// StallNs is host idle time injected via Engine.Stall (recovery
	// backoff waits); it stretches the makespan without issuing commands.
	StallNs float64
}

// Merge folds the counters of another engine (a further channel shard) into
// s: counters sum, the makespans (MakespanNs, MaxUnitBusy) take the max —
// channels run side by side. Merging shards in a fixed order keeps the
// float sums reproducible.
func (s *EngineStats) Merge(o EngineStats) {
	s.Ops += o.Ops
	s.Transfers += o.Transfers
	s.ComputeNs += o.ComputeNs
	s.TransferNs += o.TransferNs
	s.SSDNs += o.SSDNs
	s.BusBusyNs += o.BusBusyNs
	s.SpillIns += o.SpillIns
	s.SpillOuts += o.SpillOuts
	s.EnergyPJ += o.EnergyPJ
	s.UnitBusySum += o.UnitBusySum
	s.DistinctUnit += o.DistinctUnit
	s.StallNs += o.StallNs
	if o.MakespanNs > s.MakespanNs {
		s.MakespanNs = o.MakespanNs
	}
	if o.MaxUnitBusy > s.MaxUnitBusy {
		s.MaxUnitBusy = o.MaxUnitBusy
	}
}

// NewEngine builds an engine for the geometry/timing pair. salp enables
// Subarray-Level Parallelism.
func NewEngine(g Geometry, t Timing, salp bool) *Engine {
	e := &Engine{}
	e.Reconfigure(g, t, salp)
	return e
}

// Reconfigure re-arms the engine for a new run under a (possibly different)
// geometry/timing pair, reusing the scheduling slices when the unit count
// is unchanged. SSDDelay returns to its NewEngine default.
func (e *Engine) Reconfigure(g Geometry, t Timing, salp bool) {
	units := g.Banks * g.SubarraysPB
	if len(e.unit) != units {
		e.unit = make([]float64, units)
		e.subSeq = make([]float64, units)
		e.seen = make([]bool, units)
	}
	e.geom, e.timing, e.salp = g, t, salp
	e.SSDDelay = nil
	for k := range isa.NumOpKinds {
		op := isa.Op{Kind: isa.OpKind(k)}
		e.latByKind[k] = t.OpLatency(&op)
		e.busByKind[k] = t.BusLatency(&op)
		e.energyByKind[k] = t.OpEnergyPJ(&op)
		e.xferByKind[k] = op.IsTransfer()
	}
	e.Reset()
}

// Reset rewinds the engine to time zero with empty stats, keeping the
// geometry, timing tables and scheduling slices for reuse across trials.
// Only an issued command writes the per-unit slices, so an engine that
// issued none since its last reset skips clearing them: a machine resets
// its engine on every pass, and only a recovered run issues on it.
func (e *Engine) Reset() {
	e.busFree, e.lastStart, e.now = 0, 0, 0
	if e.stats.Ops > 0 {
		clear(e.unit)
		clear(e.subSeq)
		clear(e.seen)
	}
	e.stats = EngineStats{}
}

// MemBytes reports the bytes of scheduling state the engine retains.
func (e *Engine) MemBytes() int64 {
	return int64(cap(e.unit)+cap(e.subSeq))*8 + int64(cap(e.seen))
}

// Issue schedules one placed op and returns its completion time (ns since
// engine start).
func (e *Engine) Issue(p Placed) float64 {
	return e.IssueOp(p.Bank, p.Subarray, p.Op.Kind, p.Op.Imm)
}

// IssueOp is Issue without the Placed wrapper: schedulers that already hold
// the op's kind and immediate (the pre-decoded execution stream) issue
// through it without copying a whole isa.Op per command.
func (e *Engine) IssueOp(bank, sub int, kind isa.OpKind, imm uint64) float64 {
	var lat, bus, energy float64
	var transfer bool
	if k := int(kind); k < isa.NumOpKinds {
		lat, bus, energy, transfer = e.latByKind[k], e.busByKind[k], e.energyByKind[k], e.xferByKind[k]
	}

	if bank < 0 || sub < 0 || bank >= e.geom.Banks || sub >= e.geom.SubarraysPB {
		panic(fmt.Sprintf("dram: bank %d sub %d outside the geometry's %d banks x %d subarrays", bank, sub, e.geom.Banks, e.geom.SubarraysPB))
	}
	si := bank*e.geom.SubarraysPB + sub
	ui := si
	if !e.salp {
		ui = bank * e.geom.SubarraysPB
	}

	start := e.unit[ui]
	if s := e.subSeq[si]; s > start {
		start = s
	}
	if s := e.lastStart + IssueGapNs; s > start && e.stats.Ops > 0 {
		start = s
	}

	if bus > 0 {
		if e.busFree > start {
			start = e.busFree
		}
		e.busFree = start + bus
		e.stats.BusBusyNs += bus
	}

	var ssdNs float64
	switch kind {
	case isa.OpSpillOut:
		e.stats.SpillOuts++
		if e.SSDDelay != nil {
			ssdNs = e.SSDDelay(true, imm, start)
		}
	case isa.OpSpillIn:
		e.stats.SpillIns++
		if e.SSDDelay != nil {
			ssdNs = e.SSDDelay(false, imm, start)
		}
	}

	end := start + lat + ssdNs
	e.lastStart = start
	if !e.seen[ui] {
		e.stats.DistinctUnit++
	}
	e.unit[ui] = end
	e.seen[ui] = true
	e.subSeq[si] = end
	if end > e.now {
		e.now = end
	}

	e.stats.Ops++
	e.stats.EnergyPJ += energy
	if transfer {
		e.stats.Transfers++
		e.stats.TransferNs += lat
	} else {
		e.stats.ComputeNs += lat
	}
	e.stats.SSDNs += ssdNs
	if end > e.stats.MaxUnitBusy {
		e.stats.MaxUnitBusy = end
	}
	return end
}

// Stall advances the host command stream by ns nanoseconds of idle wait:
// no command can start before the stall elapses. The recovery layer
// charges its deterministic retry backoff here, so replay delays appear in
// the makespan (and in Stats().StallNs) without fabricating DRAM commands.
// Non-positive stalls are no-ops.
func (e *Engine) Stall(ns float64) {
	if ns <= 0 {
		return
	}
	e.now += ns
	if e.now > e.lastStart {
		e.lastStart = e.now
	}
	e.stats.StallNs += ns
}

// RunCtx issues a whole stream and returns the makespan in nanoseconds,
// including refresh dilation, under the guard layer: maxCommands > 0 caps
// how many commands the stream may issue (the guard.DimDRAMCommands budget
// dimension, checked per command so the cap is exact and deterministic),
// and a non-nil ctx is observed every 256 commands for cooperative
// cancellation. The returned makespan covers the commands issued before
// the stop.
func (e *Engine) RunCtx(ctx context.Context, stream []Placed, maxCommands int) (float64, error) {
	for i := range stream {
		if i&255 == 0 {
			if err := guard.Ctx(ctx); err != nil {
				return e.Makespan(), err
			}
		}
		if err := guard.Check(guard.DimDRAMCommands, maxCommands, i+1); err != nil {
			return e.Makespan(), err
		}
		e.Issue(stream[i])
	}
	e.stats.MakespanNs = e.Makespan()
	return e.stats.MakespanNs, guard.Ctx(ctx)
}

// Makespan returns the completion time of everything issued so far,
// stretched by the refresh overhead (the memory controller steals a tRFC
// window every tREFI regardless of what the subarrays are doing).
func (e *Engine) Makespan() float64 { return e.now * (1 + RefreshOverhead) }

// Stats returns aggregate counters (MakespanNs reflects ops issued so far).
func (e *Engine) Stats() EngineStats {
	s := e.stats
	s.MakespanNs = e.Makespan()
	return s
}

package dram

// Golden equivalence for the dense-slice engine rewrite: a verbatim copy of
// the pre-rewrite map-backed Engine.Issue schedules random command streams
// in lockstep with the new engine, and every per-op completion time plus
// the full stats block must match exactly (float-for-float: the rewrite
// preserves the original operation order, so results are bit-identical).

import (
	"math/rand"
	"testing"

	"chopper/internal/isa"
)

// seedEngine is the map-backed engine exactly as it stood before the
// dense-slice rewrite (commit 5e56f8e).
type seedEngine struct {
	geom   Geometry
	timing Timing
	salp   bool

	IssueGapNs float64

	busFree   float64
	lastStart float64
	unit      map[unitKey]float64
	subSeq    map[unitKey]float64
	now       float64

	SSDDelay func(out bool, slot uint64, startNs float64) float64

	stats EngineStats
}

func newSeedEngine(g Geometry, t Timing, salp bool) *seedEngine {
	return &seedEngine{
		geom: g, timing: t, salp: salp,
		IssueGapNs: 0.833,
		unit:       make(map[unitKey]float64),
		subSeq:     make(map[unitKey]float64),
	}
}

func (e *seedEngine) unitKeyFor(p *Placed) unitKey {
	if e.salp {
		return unitKey{p.Bank, p.Subarray}
	}
	return unitKey{p.Bank, 0}
}

func (e *seedEngine) issue(p Placed) float64 {
	lat := e.timing.OpLatency(&p.Op)
	bus := e.timing.BusLatency(&p.Op)

	uk := e.unitKeyFor(&p)
	sk := unitKey{p.Bank, p.Subarray}

	start := e.unit[uk]
	if s := e.subSeq[sk]; s > start {
		start = s
	}
	if s := e.lastStart + e.IssueGapNs; s > start && e.stats.Ops > 0 {
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
	switch p.Op.Kind {
	case isa.OpSpillOut:
		e.stats.SpillOuts++
		if e.SSDDelay != nil {
			ssdNs = e.SSDDelay(true, p.Op.Imm, start)
		}
	case isa.OpSpillIn:
		e.stats.SpillIns++
		if e.SSDDelay != nil {
			ssdNs = e.SSDDelay(false, p.Op.Imm, start)
		}
	}

	end := start + lat + ssdNs
	e.lastStart = start
	if _, seen := e.unit[uk]; !seen {
		e.stats.DistinctUnit++
	}
	e.unit[uk] = end
	e.subSeq[sk] = end
	if end > e.now {
		e.now = end
	}

	e.stats.Ops++
	e.stats.EnergyPJ += e.timing.OpEnergyPJ(&p.Op)
	if p.Op.IsTransfer() {
		e.stats.Transfers++
		e.stats.TransferNs += lat
	} else {
		e.stats.ComputeNs += lat
	}
	e.stats.SSDNs += ssdNs
	busy := e.unit[uk]
	if busy > e.stats.MaxUnitBusy {
		e.stats.MaxUnitBusy = busy
	}
	return end
}

func (e *seedEngine) makespan() float64 { return e.now * (1 + RefreshOverhead) }

// unitKey is the seed engine's map key: a bank, and the subarray under SALP.
type unitKey struct{ bank, sub int }

// genStream builds a random placed command stream over the geometry's
// subarrays, including unknown op kinds.
func genStream(rng *rand.Rand, g Geometry, n int) []Placed {
	ops := []isa.Op{
		isa.NewAAP(isa.Row(0), isa.Row(1)),
		isa.NewAP(isa.T0, isa.T1, isa.T2),
		isa.NewWrite(isa.Row(2), 1),
		isa.NewRead(isa.Row(2), 2),
		isa.NewSpillOut(isa.Row(3), 7),
		isa.NewSpillIn(isa.Row(3), 7),
		isa.NewCopy(isa.C0, isa.Row(4)),
		{Kind: isa.OpKind(99)}, // unknown kind: zero-latency, like the seed
	}
	stream := make([]Placed, n)
	for i := range stream {
		stream[i] = Placed{Bank: rng.Intn(g.Banks), Subarray: rng.Intn(g.SubarraysPB), Op: ops[rng.Intn(len(ops))]}
	}
	return stream
}

func TestEngineSeedEquivalence(t *testing.T) {
	for _, salp := range []bool{false, true} {
		for _, withSSD := range []bool{false, true} {
			for streamSeed := int64(0); streamSeed < 6; streamSeed++ {
				g := DefaultGeometry()
				g.Banks, g.SubarraysPB = 4, 8 // small, so contention actually happens
				tm := TimingFor(isa.Ambit, g)
				if streamSeed%2 == 1 {
					tm = TimingFor(isa.ELP2IM, g)
				}
				ref := newSeedEngine(g, tm, salp)
				eng := NewEngine(g, tm, salp)
				if withSSD {
					ssdFn := func(out bool, slot uint64, startNs float64) float64 {
						d := 3000.0 + float64(slot)*17
						if out {
							d += 25000
						}
						return d
					}
					ref.SSDDelay = ssdFn
					eng.SSDDelay = ssdFn
				}
				rng := rand.New(rand.NewSource(streamSeed))
				stream := genStream(rng, g, 400)
				for i, p := range stream {
					want := ref.issue(p)
					got := eng.Issue(p)
					if want != got {
						t.Fatalf("salp=%v ssd=%v seed=%d op %d: completion %v != seed %v", salp, withSSD, streamSeed, i, got, want)
					}
				}
				if ref.makespan() != eng.Makespan() {
					t.Fatalf("salp=%v ssd=%v seed=%d: makespan %v != seed %v", salp, withSSD, streamSeed, eng.Makespan(), ref.makespan())
				}
				refStats := ref.stats
				refStats.MakespanNs = ref.makespan()
				if got := eng.Stats(); got != refStats {
					t.Fatalf("salp=%v ssd=%v seed=%d: stats diverged\nseed: %+v\nnew:  %+v", salp, withSSD, streamSeed, refStats, got)
				}
			}
		}
	}
}

// TestEngineResetEquivalence proves a Reset engine behaves like a fresh
// one, and Reconfigure like a fresh engine of the new shape.
func TestEngineResetEquivalence(t *testing.T) {
	g := DefaultGeometry()
	g.Banks, g.SubarraysPB = 4, 8
	tm := TimingFor(isa.SIMDRAM, g)
	eng := NewEngine(g, tm, true)
	rng := rand.New(rand.NewSource(7))
	for _, p := range genStream(rng, g, 200) {
		eng.Issue(p)
	}

	// Reset: replay a second stream and compare with a fresh engine.
	eng.Reset()
	fresh := NewEngine(g, tm, true)
	rng2 := rand.New(rand.NewSource(8))
	stream := genStream(rng2, g, 200)
	for i, p := range stream {
		if got, want := eng.Issue(p), fresh.Issue(p); got != want {
			t.Fatalf("after Reset, op %d: %v != fresh %v", i, got, want)
		}
	}
	if eng.Stats() != fresh.Stats() {
		t.Fatalf("after Reset: stats diverged\nreused: %+v\nfresh:  %+v", eng.Stats(), fresh.Stats())
	}

	// Reconfigure to a different shape: same comparison.
	g2 := g
	g2.Banks, g2.SubarraysPB = 2, 16
	tm2 := TimingFor(isa.ELP2IM, g2)
	eng.Reconfigure(g2, tm2, false)
	fresh2 := NewEngine(g2, tm2, false)
	rng3 := rand.New(rand.NewSource(9))
	for i, p := range genStream(rng3, g2, 200) {
		if got, want := eng.Issue(p), fresh2.Issue(p); got != want {
			t.Fatalf("after Reconfigure, op %d: %v != fresh %v", i, got, want)
		}
	}
	if eng.Stats() != fresh2.Stats() {
		t.Fatalf("after Reconfigure: stats diverged")
	}
}

package main

import (
	"fmt"
	"sort"
	"strings"
)

// layerMetrics derives a library workload's per-layer metrics. Times are
// milliseconds per cycle, averaged over the staged cycles after the first
// (which warms the benchmark's own buffers); counts are per cycle and
// exact. publicMs is each item's median time through the public API;
// counts are the last staged cycle's exact counters.
func (c *cycle) layerMetrics(tr *tracer, publicMs []float64, counts map[string]float64) map[string]float64 {
	var spans []span
	for i := range tr.spans {
		if s := &tr.spans[i]; s.Workload == c.name && s.Cycle >= 1 {
			spans = append(spans, *s)
		}
	}
	cycles := float64(stagedCycles - 1)
	ms := func(name string) float64 {
		var ns int64
		for i := range spans {
			if spans[i].Name == name {
				ns += spans[i].dur()
			}
		}
		return float64(ns) / 1e6 / cycles
	}
	size := func(name string) float64 {
		var sum float64
		for i := range spans {
			if spans[i].Name == name {
				sum += spans[i].Size
			}
		}
		return sum / cycles
	}
	calls := func(name string) float64 {
		var n float64
		for i := range spans {
			if spans[i].Name == name {
				n++
			}
		}
		return n / cycles
	}

	// Public-API time and staged time per path. The staged time of an op
	// is the sum of the layer spans directly under its root; harness spans
	// (work the root package does itself and the benchmark had to redo)
	// and standalone re-runs are not layer time.
	pathOf := make(map[string]string, len(c.items))
	publicByPath := map[string]float64{}
	for i := range c.items {
		pathOf[c.items[i].name] = c.items[i].path
		publicByPath[c.items[i].path] += publicMs[i]
	}
	rootItem := map[int]string{}
	for i := range spans {
		if spans[i].Parent < 0 {
			rootItem[spans[i].ID] = spans[i].Item
		}
	}
	stagedByPath := map[string]float64{}
	for i := range spans {
		s := &spans[i]
		it, top := rootItem[s.Parent]
		if !top || s.Within != "" || layerOf(s.Name) == "harness" {
			continue
		}
		stagedByPath[pathOf[it]] += float64(s.dur()) / 1e6 / cycles
	}
	glue := func(paths ...string) float64 {
		var pub, staged float64
		for _, p := range paths {
			pub += publicByPath[p]
			staged += stagedByPath[p]
		}
		if pub == 0 {
			return 0
		}
		return (pub - staged) / pub
	}
	ratio := func(num, den float64) float64 {
		if den == 0 {
			return 0
		}
		return num / den
	}

	m := map[string]float64{
		"dsl.parse_ms":               ms("dsl.parse"),
		"dsl.src_kb":                 size("dsl.parse") / 1024,
		"typecheck.check_ms":         ms("typecheck.check"),
		"dfg.build_ms":               ms("dfg.build"),
		"dfg.values":                 size("dfg.build"),
		"dfg.eval_ms":                ms("dfg.eval"),
		"narrow.run_ms":              ms("narrow.run"),
		"narrow.live_bit_share":      ratio(counts["narrow.live_bits"], counts["narrow.declared_bits"]),
		"narrow.fallbacks":           counts["narrow.fallbacks"],
		"bitslice.lower_ms":          ms("bitslice.lower"),
		"bitslice.gates":             size("bitslice.lower"),
		"logic.legalize_ms":          ms("logic.legalize"),
		"logic.gates":                size("logic.legalize"),
		"logic.tmr_ms":               ms("logic.tmr"),
		"obs.schedule_ms":            ms("obs.schedule"),
		"obs.max_live_rows":          counts["obs.max_live_rows"],
		"codegen.generate_ms":        ms("codegen.generate"),
		"codegen.uops":               size("codegen.generate"),
		"codegen.spill_ops":          counts["codegen.spill_ops"],
		"codegen.stores_elided":      counts["codegen.stores_elided"],
		"codegen.max_live_rows":      counts["codegen.max_live_rows"],
		"baseline.generate_ms":       ms("baseline.generate"),
		"baseline.uops":              size("baseline.generate"),
		"kcache.hit_us":              ratio(ms("kcache.hit")*1e3, calls("kcache.hit")),
		"chopper.compile_ms":         publicByPath["compile"],
		"chopper.compile_glue_share": glue("compile"),
		"chopper.run_plain_ms":       publicByPath["plain"],
		"chopper.run_fault_ms":       publicByPath["fault"],
		"chopper.run_recovered_ms":   publicByPath["recovered"],
		"chopper.run_batch16_ms":     publicByPath["batch16"],
		"chopper.verify4_ms":         publicByPath["verify4"],
		"chopper.run_glue_share":     glue("plain", "fault", "recovered", "batch16", "verify4"),
		"chopper.tiled_ch1_ms":       publicByPath["ch1"],
		"chopper.tiled_ch4_ms":       publicByPath["ch4"],
		"chopper.tiled_salp_ms":      publicByPath["salp"],
		"chopper.tiled_glue_share":   glue("ch1", "ch4", "salp"),
		"transpose.to_vertical_ms":   ms("transpose.to_vertical"),
		"transpose.from_vertical_ms": ms("transpose.from_vertical"),
		"transpose.mb":               (size("transpose.to_vertical") + size("transpose.from_vertical")) / (1 << 20),
		"sim.decode_ms":              ms("sim.decode"),
		"sim.exec_ms":                ms("sim.exec"),
		"sim.uops_executed":          size("sim.exec"),
		"sim.ns_per_uop":             ratio(ms("sim.exec")*1e6, size("sim.exec")),
		"vircoe.emit_ms":             ms("vircoe.emit"),
		"dram.replay_ms":             ms("dram.replay"),
		"dram.ns_per_command":        ratio(ms("dram.replay")*1e6, size("dram.replay")),
		"trace.staged_mismatch":      counts["trace.staged_mismatch"],
	}
	if c.cache != nil {
		st := c.cache.Stats()
		lookups := float64(st.Hits + st.Misses + st.Dedups)
		m["kcache.hit_share"] = ratio(float64(st.Hits), lookups)
		m["kcache.dedup_share"] = ratio(float64(st.Dedups), lookups)
	}

	// Simulated-side counters come from the public API's own results: the
	// latest execution of every item (for compile items, the checked run
	// of the correctness stage).
	var tiledNs, tiledWallNs float64
	var o opObs
	for i := range c.items {
		ob := c.items[i].obs
		o.eng.Ops += ob.eng.Ops
		o.eng.BusBusyNs += ob.eng.BusBusyNs
		o.eng.MakespanNs += ob.eng.MakespanNs
		o.eng.ComputeNs += ob.eng.ComputeNs
		o.eng.TransferNs += ob.eng.TransferNs
		o.eng.SSDNs += ob.eng.SSDNs
		o.eng.SpillIns += ob.eng.SpillIns
		o.eng.SpillOuts += ob.eng.SpillOuts
		o.emit.Ops += ob.emit.Ops
		o.emit.Interleave += ob.emit.Interleave
		o.emit.SpanNs += ob.emit.SpanNs
		o.transferNs += ob.transferNs
		o.overlapNs += ob.overlapNs
		o.rec.Epochs += ob.rec.Epochs
		o.faults += ob.faults
		if ob.rec.CheckpointBytes > o.rec.CheckpointBytes {
			o.rec.CheckpointBytes = ob.rec.CheckpointBytes
		}
		if ob.scratch > o.scratch {
			o.scratch = ob.scratch
		}
		if ob.degraded {
			m["chopper.degraded"]++
		}
		if p := c.items[i].path; p == "ch1" || p == "ch4" || p == "salp" {
			tiledNs += ob.simNs
			tiledWallNs += publicMs[i] * 1e6
		}
	}
	m["chopper.tiled_host_per_sim"] = ratio(tiledWallNs, tiledNs)
	m["sim.scratch_kb"] = float64(o.scratch) / 1024
	m["sim.recovery_epochs"] = float64(o.rec.Epochs)
	m["sim.recovery_checkpoint_kb"] = float64(o.rec.CheckpointBytes) / 1024
	m["sim.faults_injected"] = float64(o.faults)
	m["vircoe.interleave_share"] = ratio(float64(o.emit.Interleave), float64(o.emit.Ops))
	m["vircoe.span_us"] = o.emit.SpanNs / 1e3
	m["dram.commands"] = float64(o.eng.Ops)
	m["dram.bus_busy_share"] = ratio(o.eng.BusBusyNs, o.eng.MakespanNs)
	m["dram.compute_us"] = o.eng.ComputeNs / 1e3
	m["dram.transfer_us"] = o.eng.TransferNs / 1e3
	m["dram.spill_rows"] = float64(o.eng.SpillIns + o.eng.SpillOuts)
	m["ssd.us"] = o.eng.SSDNs / 1e3
	m["hostmodel.transfer_us"] = o.transferNs / 1e3
	m["hostmodel.overlap_share"] = ratio(o.overlapNs, o.transferNs)
	return m
}

// layerReport renders the share of staged self time each layer holds on a
// workload, largest first, for the traced run's human-readable output.
func layerReport(spans []span, workload string) string {
	shares := layerSelfShares(spans, func(s *span) bool {
		return s.Workload == workload && s.Cycle >= 1 && !strings.HasPrefix(s.Item, setupItem)
	})
	type row struct {
		layer string
		share float64
	}
	var rows []row
	for l, v := range shares {
		rows = append(rows, row{l, v})
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].share > rows[j].share })
	var sb strings.Builder
	for _, r := range rows {
		fmt.Fprintf(&sb, "%-10s%6.1f %%\n", r.layer, 100*r.share)
	}
	return sb.String()
}

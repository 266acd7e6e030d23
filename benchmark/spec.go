package main

import (
	"time"

	"chopper"
	"chopper/internal/dram"
	"chopper/internal/serve"
)

// This file is the benchmark's contract in code: the workload names, the
// metric names with their units, directions, clocks and bounds, and every
// fixed condition a run uses. BENCHMARK.json at the repository root states
// the same tables for the driver; spec_test.go holds the two together.

// workloadSpec names one workload and says why it exists.
type workloadSpec struct {
	Name string
	Why  string
}

// workloadSpecs lists the six workloads in run order.
var workloadSpecs = []workloadSpec{
	{"compile_cold", "closed loop, 1 caller: CompileCtx from source, no cache, OptFull, 16 Table-II kernels x 3 targets; front-end, middle-end and codegen do all the work, sim/dram/serve none"},
	{"compile_variants", "closed loop, 1 caller: 4 kernels on Ambit x {bitslice, schedule, reuse, full+narrow, full+harden, baseline, cache hit}; catches a default-pipeline gain paid for by another pipeline"},
	{"run_paths", "closed loop, 1 caller: 4 precompiled kernels x {RunWide, RunRowsUnderFault, recovered RunRows, RunBatch 16x8, Verify 4} at 128 lanes; sim and the single-subarray dram.Engine work, the compiler none"},
	{"tiled_16", "closed loop, 1 caller: RunTiledCtx, 4 kernels x {1 channel, 4 channels, 1 channel + SALP}, 16 tiles = 16384 lanes; transpose, per-tile sim fan-out, vircoe, multi-unit dram replay, hostmodel"},
	{"serve_mixed", "open loop, seeded Poisson 300 req/s into the chopperd handler in-process: compile 30/run 60/verify 10 %, 4 tenants, 3 classes, 3 % unique sources; JSON, admission, per-tenant cache shards"},
	{"serve_hot_key", "closed loop, 32 callers: identical-key 16-bit MAC run requests with coalescing on; the batcher does the work, so ops_per_s is the capacity the open loop cannot give"},
}

// metricSpec describes one metric. Clock is "wall" (host time), "sim"
// (modelled DRAM time or counts derived from it) or "" (neither). Bound is
// the share of the parent's median by which an end-to-end metric may get
// worse; per-layer metrics have none.
type metricSpec struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	Clock  string
	Bound  float64
	Moves  string // per-layer only: the end-to-end metric and workload it should move
}

// exactBound stands for "may not get worse at all": the simulated metrics
// repeat bit for bit, so any positive slack this small rejects every real
// regression while staying a valid share.
const exactBound = 1e-9

// endToEndSpecs are the metrics a user of the system sees; every one is
// reported on every workload. Three of the issue's ten are not here:
// fail_share is carried by the result line's failed/attempted pair (it is
// 0 on a healthy run, and a metric here must never be 0); sim_uops_per_s
// has no meaning on the compile workloads, so it is the per-layer
// sim.uops_per_s; and op_ms_p95 does not repeat within its bound on
// serve_mixed, so it is per-layer too. The wall-clock bounds are what the
// two shared cores this was measured on support (README, "First measured
// values").
var endToEndSpecs = []metricSpec{
	{Name: "setup_s", Unit: "s", Better: "lower", Clock: "wall", Bound: 0.25},
	{Name: "ops_per_s", Unit: "1/s", Better: "higher", Clock: "wall", Bound: 0.25},
	{Name: "op_ms_p50", Unit: "ms", Better: "lower", Clock: "wall", Bound: 0.25},
	{Name: "alloc_kb_per_op", Unit: "KiB", Better: "lower", Clock: "", Bound: 0.05},
	{Name: "uops_total", Unit: "count", Better: "lower", Clock: "sim", Bound: exactBound},
	{Name: "sim_makespan_us", Unit: "sim_us", Better: "lower", Clock: "sim", Bound: exactBound},
	{Name: "sim_energy_uj", Unit: "sim_uJ", Better: "lower", Clock: "sim", Bound: exactBound},
}

// perLayerSpecs are the metrics of single layers, reported by the traced
// run. A layer a workload bypasses reports 0 there.
var perLayerSpecs = []metricSpec{
	{Name: "dsl.parse_ms", Unit: "ms", Better: "lower", Clock: "wall", Moves: "compile_cold ops_per_s; nothing on run_paths/tiled_16"},
	{Name: "dsl.src_kb", Unit: "KiB", Better: "lower", Moves: "size of the parser's input"},
	{Name: "typecheck.check_ms", Unit: "ms", Better: "lower", Clock: "wall", Moves: "compile_cold ops_per_s"},
	{Name: "dfg.build_ms", Unit: "ms", Better: "lower", Clock: "wall", Moves: "compile_cold ops_per_s"},
	{Name: "dfg.values", Unit: "count", Better: "lower", Moves: "fewer values leave less work for every later pass"},
	{Name: "dfg.eval_ms", Unit: "ms", Better: "lower", Clock: "wall", Moves: "run_paths verify items (Kernel.Verify's reference evaluation)"},
	{Name: "narrow.run_ms", Unit: "ms", Better: "lower", Clock: "wall", Moves: "compile_variants only; buys uops_total/sim_makespan_us there"},
	{Name: "narrow.live_bit_share", Unit: "ratio", Better: "lower", Moves: "compile_variants uops_total"},
	{Name: "narrow.fallbacks", Unit: "count", Better: "lower", Moves: "silent fallbacks of the narrowing pass"},
	{Name: "bitslice.lower_ms", Unit: "ms", Better: "lower", Clock: "wall", Moves: "compile_* ops_per_s, alloc_kb_per_op"},
	{Name: "bitslice.gates", Unit: "count", Better: "lower", Moves: "work handed to legalize"},
	{Name: "logic.legalize_ms", Unit: "ms", Better: "lower", Clock: "wall", Moves: "compile_* ops_per_s"},
	{Name: "logic.gates", Unit: "count", Better: "lower", Moves: "uops_total, then run_paths ops_per_s with sim.uops_per_s flat"},
	{Name: "logic.tmr_ms", Unit: "ms", Better: "lower", Clock: "wall", Moves: "compile_variants harden items"},
	{Name: "obs.schedule_ms", Unit: "ms", Better: "lower", Clock: "wall", Moves: "compile_* ops_per_s (also counted inside codegen.generate_ms)"},
	{Name: "obs.max_live_rows", Unit: "count", Better: "lower", Moves: "codegen.spill_ops, then sim_makespan_us"},
	{Name: "codegen.generate_ms", Unit: "ms", Better: "lower", Clock: "wall", Moves: "compile_* ops_per_s"},
	{Name: "codegen.uops", Unit: "count", Better: "lower", Clock: "sim", Moves: "uops_total everywhere"},
	{Name: "codegen.spill_ops", Unit: "count", Better: "lower", Clock: "sim", Moves: "sim_makespan_us, sim_energy_uj"},
	{Name: "codegen.stores_elided", Unit: "count", Better: "higher", Clock: "sim", Moves: "uops_total"},
	{Name: "codegen.max_live_rows", Unit: "count", Better: "lower", Clock: "sim", Moves: "codegen.spill_ops"},
	{Name: "baseline.generate_ms", Unit: "ms", Better: "lower", Clock: "wall", Moves: "compile_variants only"},
	{Name: "baseline.uops", Unit: "count", Better: "lower", Clock: "sim", Moves: "compile_variants uops_total"},
	{Name: "kcache.hit_us", Unit: "us", Better: "lower", Clock: "wall", Moves: "serve_mixed op_ms_p50; compile_variants cache-hit items"},
	{Name: "kcache.hit_share", Unit: "ratio", Better: "higher", Moves: "serve_mixed op_ms_p50"},
	{Name: "kcache.dedup_share", Unit: "ratio", Better: "higher", Moves: "serve_mixed under concurrent identical misses"},
	{Name: "chopper.compile_ms", Unit: "ms", Better: "lower", Clock: "wall", Moves: "compile_* ops_per_s (public API, one cycle)"},
	{Name: "chopper.compile_glue_share", Unit: "ratio", Better: "lower", Moves: "what an in-layer compile optimisation cannot save"},
	{Name: "chopper.degraded", Unit: "count", Better: "lower", Moves: "kernels that walked the degradation ladder"},
	{Name: "chopper.run_plain_ms", Unit: "ms", Better: "lower", Clock: "wall", Moves: "run_paths ops_per_s"},
	{Name: "chopper.run_fault_ms", Unit: "ms", Better: "lower", Clock: "wall", Moves: "run_paths ops_per_s"},
	{Name: "chopper.run_recovered_ms", Unit: "ms", Better: "lower", Clock: "wall", Moves: "run_paths ops_per_s"},
	{Name: "chopper.run_batch16_ms", Unit: "ms", Better: "lower", Clock: "wall", Moves: "run_paths ops_per_s"},
	{Name: "chopper.verify4_ms", Unit: "ms", Better: "lower", Clock: "wall", Moves: "run_paths ops_per_s"},
	{Name: "chopper.run_glue_share", Unit: "ratio", Better: "lower", Moves: "what an in-layer run optimisation cannot save"},
	{Name: "chopper.tiled_ch1_ms", Unit: "ms", Better: "lower", Clock: "wall", Moves: "tiled_16 ops_per_s"},
	{Name: "chopper.tiled_ch4_ms", Unit: "ms", Better: "lower", Clock: "wall", Moves: "tiled_16 ops_per_s"},
	{Name: "chopper.tiled_salp_ms", Unit: "ms", Better: "lower", Clock: "wall", Moves: "tiled_16 ops_per_s"},
	{Name: "chopper.tiled_glue_share", Unit: "ratio", Better: "lower", Moves: "what an in-layer tiled optimisation cannot save"},
	{Name: "chopper.tiled_host_per_sim", Unit: "ratio", Better: "lower", Moves: "wall ns per simulated ns on tiled_16"},
	{Name: "transpose.to_vertical_ms", Unit: "ms", Better: "lower", Clock: "wall", Moves: "tiled_16 ops_per_s; run_paths plain/batch items; nothing on compile_*"},
	{Name: "transpose.from_vertical_ms", Unit: "ms", Better: "lower", Clock: "wall", Moves: "tiled_16 ops_per_s; run_paths plain/batch items"},
	{Name: "transpose.mb", Unit: "MiB", Better: "lower", Moves: "bytes of vertical rows produced and consumed"},
	{Name: "sim.decode_ms", Unit: "ms", Better: "lower", Clock: "wall", Moves: "setup_s of run_paths/tiled_16 (decoded once per kernel)"},
	{Name: "sim.exec_ms", Unit: "ms", Better: "lower", Clock: "wall", Moves: "run_paths and tiled_16 ops_per_s"},
	{Name: "sim.uops_executed", Unit: "count", Better: "lower", Clock: "sim", Moves: "follows uops_total x passes"},
	{Name: "sim.ns_per_uop", Unit: "ns", Better: "lower", Clock: "wall", Moves: "run_paths (dispatch-bound) and tiled_16 (word-loop-bound) ops_per_s"},
	{Name: "sim.uops_per_s", Unit: "1/s", Better: "higher", Clock: "wall", Moves: "simulated micro-ops retired per host second of the public run API; flat under a codegen-only change"},
	{Name: "sim.scratch_kb", Unit: "KiB", Better: "lower", Moves: "peak reusable simulator storage"},
	{Name: "sim.allocs_per_run", Unit: "count", Better: "lower", Moves: "alloc_kb_per_op on run_paths"},
	{Name: "sim.recovery_epochs", Unit: "count", Better: "lower", Clock: "sim", Moves: "run_paths recovered items"},
	{Name: "sim.recovery_checkpoint_kb", Unit: "KiB", Better: "lower", Moves: "run_paths recovered items"},
	{Name: "sim.faults_injected", Unit: "count", Better: "lower", Clock: "sim", Moves: "run_paths fault items; repeats exactly for a seed"},
	{Name: "vircoe.emit_ms", Unit: "ms", Better: "lower", Clock: "wall", Moves: "tiled_16 ops_per_s; nothing on run_paths"},
	{Name: "vircoe.interleave_share", Unit: "ratio", Better: "higher", Clock: "sim", Moves: "tiled_16 sim_makespan_us"},
	{Name: "vircoe.span_us", Unit: "sim_us", Better: "lower", Clock: "sim", Moves: "tiled_16 sim_makespan_us"},
	{Name: "dram.replay_ms", Unit: "ms", Better: "lower", Clock: "wall", Moves: "tiled_16 ops_per_s; small share of run_paths"},
	{Name: "dram.commands", Unit: "count", Better: "lower", Clock: "sim", Moves: "follows uops_total x tiles"},
	{Name: "dram.ns_per_command", Unit: "ns", Better: "lower", Clock: "wall", Moves: "tiled_16 ops_per_s"},
	{Name: "dram.bus_busy_share", Unit: "ratio", Better: "lower", Clock: "sim", Moves: "tiled_16 sim_makespan_us"},
	{Name: "dram.compute_us", Unit: "sim_us", Better: "lower", Clock: "sim", Moves: "sim_makespan_us"},
	{Name: "dram.transfer_us", Unit: "sim_us", Better: "lower", Clock: "sim", Moves: "sim_makespan_us"},
	{Name: "dram.spill_rows", Unit: "count", Better: "lower", Clock: "sim", Moves: "sim_makespan_us on kernels that spill"},
	{Name: "ssd.us", Unit: "sim_us", Better: "lower", Clock: "sim", Moves: "sim_makespan_us on kernels that spill"},
	{Name: "hostmodel.transfer_us", Unit: "sim_us", Better: "lower", Clock: "sim", Moves: "tiled_16 sim_makespan_us"},
	{Name: "hostmodel.overlap_share", Unit: "ratio", Better: "higher", Clock: "sim", Moves: "tiled_16 sim_makespan_us"},
	{Name: "serve.overhead_us", Unit: "us", Better: "lower", Clock: "wall", Moves: "serve_mixed op_ms_p50"},
	{Name: "serve.handler_ms_p50", Unit: "ms", Better: "lower", Clock: "wall", Moves: "serve_* op_ms_p50"},
	{Name: "serve.handler_ms_p99", Unit: "ms", Better: "lower", Clock: "wall", Moves: "tail only; does not repeat within a tenth"},
	{Name: "serve.req_ms_p99", Unit: "ms", Better: "lower", Clock: "wall", Moves: "tail only; does not repeat within a tenth"},
	{Name: "serve.compile_ms_p50", Unit: "ms", Better: "lower", Clock: "wall", Moves: "serve_mixed op_ms_p50"},
	{Name: "serve.run_ms_p50", Unit: "ms", Better: "lower", Clock: "wall", Moves: "serve_mixed op_ms_p50"},
	{Name: "serve.verify_ms_p50", Unit: "ms", Better: "lower", Clock: "wall", Moves: "serve_mixed op_ms_p95"},
	{Name: "serve.interactive_ms_p95", Unit: "ms", Better: "lower", Clock: "wall", Moves: "serve_mixed op_ms_p95"},
	{Name: "serve.batch_ms_p95", Unit: "ms", Better: "lower", Clock: "wall", Moves: "serve_* op_ms_p95"},
	{Name: "serve.besteffort_ms_p95", Unit: "ms", Better: "lower", Clock: "wall", Moves: "serve_mixed op_ms_p95"},
	{Name: "serve.batch_mean_size", Unit: "count", Better: "higher", Moves: "serve_hot_key ops_per_s up, its op_ms_p50 may rise"},
	{Name: "serve.batch_passes", Unit: "count", Better: "lower", Moves: "serve_hot_key ops_per_s"},
	{Name: "serve.shed", Unit: "count", Better: "lower", Moves: "failed/attempted"},
	{Name: "serve.timeout_408", Unit: "count", Better: "lower", Moves: "failed/attempted"},
	{Name: "serve.err_5xx", Unit: "count", Better: "lower", Moves: "failed/attempted"},
	{Name: "serve.json_kb_per_req", Unit: "KiB", Better: "lower", Moves: "serve_mixed op_ms_p50, alloc_kb_per_op"},
	{Name: "serve.compile_ns_share", Unit: "ratio", Better: "lower", Moves: "share of handler time spent compiling (misses)"},
	{Name: "op_ms_p95", Unit: "ms", Better: "lower", Clock: "wall", Moves: "the tail of every workload's op latency; on serve_mixed it does not repeat within a quarter, so it is not end-to-end"},
	{Name: "loadgen.late_ms_p95", Unit: "ms", Better: "lower", Clock: "wall", Moves: "validity: above op_ms_p95 the serve_mixed run is invalid"},
	{Name: "loadgen.sent", Unit: "count", Better: "higher", Moves: "validity: requests dispatched"},
	{Name: "trace.overhead_share", Unit: "ratio", Better: "lower", Moves: "validity: staged-vs-public wall of one cycle"},
	{Name: "trace.staged_mismatch", Unit: "count", Better: "lower", Moves: "validity: staged items whose result differs from the public API's"},
}

// Fixed conditions. Everything below is the same on every commit a
// comparison spans; changing a value is a change to the benchmark.
const (
	maxProcs         = 2   // GOMAXPROCS is pinned to min(maxProcs, NumCPU)
	refLanes         = 128 // lanes of the checked run of every compile_* kernel and of run_paths
	batchMembers     = 16  // run_paths RunBatch members ...
	batchLanes       = 8   // ... of this many lanes each (16 x 8 = refLanes)
	verifyTrials     = 4   // run_paths Kernel.Verify trials
	tiledTiles       = 16  // tiled_16 tiles per run
	serveRate        = 300 // serve_mixed requests per second
	serveLanes       = 64  // serve_mixed lanes per run request
	serveTenants     = 4
	serveOperands    = 4    // operand sets per source that run requests draw from
	serveUniqueEvery = 33   // every 33rd request of the deck carries a per-request-unique source (3 %, true cache misses)
	serveMaxOut      = 512  // open-loop generator's cap on requests in flight
	hotCallers       = 32   // serve_hot_key closed-loop callers
	hotCycle         = 256  // serve_hot_key distinct request bodies per cycle
	hotLanes         = 8    // serve_hot_key lanes per request
	maxServeSpans    = 4096 // traced serve runs write a span for this many replies (the metrics use all)
	stagedCycles     = 3    // traced library runs: staged cycles (the first warms the benchmark's own buffers)
	publicCycles     = 3    // traced library runs: public-API cycles timed per item (median)
	faultFlipRate    = 1e-4 // run_paths RunRowsUnderFault TRA flip rate
)

// traceServeMax is the longest a traced service run measures.
const traceServeMax = 5 * time.Second

// Set-up (prepare + warm-up cycle) runs minSetupRepeats times, then on
// while it has taken less than setupBudget in all, at most maxSetupRepeats
// times; setup_s is the median.
const (
	minSetupRepeats = 3
	maxSetupRepeats = 9
	setupBudget     = time.Second
)

// paperKernels are the four kernels every run and service workload uses:
// the smallest Table-II configuration of each domain.
var paperKernels = []string{"DenseNet-16", "WTC-64", "DiffGen-64", "SW-64"}

// targets are the three PUD architectures, in paper order.
var targets = []chopper.Target{chopper.Ambit, chopper.ELP2IM, chopper.SIMDRAM}

// tiledGeometry is the bank-oversubscribed device of tiled_16: 1024
// bitlines per tile, so 16 tiles are 16 384 lanes.
func tiledGeometry(channels int) dram.Geometry {
	return dram.Geometry{Banks: 4, SubarraysPB: 8, RowsPerSub: 1024, RowBytes: 128, ReservedRows: 18, Channels: channels}
}

// serveConfig is the service configuration, written out in full because
// serve.DefaultClassConfig depends on GOMAXPROCS. hotKey adds the batch
// window serve_hot_key coalesces under.
func serveConfig(hotKey bool) serve.Config {
	class := serve.ClassConfig{MaxInflight: 2, MaxQueue: 256, Deadline: 5 * time.Second}
	cfg := serve.Config{
		CacheEntries:        64,
		MaxTenants:          256,
		BreakerTripAfter:    5,
		BreakerRecoverAfter: 3,
		MaxBodyBytes:        8 << 20,
		MaxLanes:            4096,
		MaxVerifyTrials:     64,
	}
	for c := range cfg.Classes {
		cfg.Classes[c] = class
	}
	if hotKey {
		cfg.Classes[serve.Batch].BatchWindow = 2 * time.Millisecond
		cfg.Classes[serve.Batch].MaxBatchSize = 16
	}
	return cfg
}

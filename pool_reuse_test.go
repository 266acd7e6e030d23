package chopper

import (
	"context"
	"errors"
	"reflect"
	"runtime"
	"testing"
)

// TestPoolReuseInterleavedFaultyCleanRuns hammers the one worker pool —
// machines, injectors, host bindings — with alternating faulty-plain,
// faulty-recovered and clean runs, each followed by a tiled run on another
// geometry and lane count, whose tiles check out the same workers. Every
// clean and tiled run must be bit-identical to its reference and every
// clean run must report zero faults and zero recovery activity; every
// faulty run must reproduce its own first result. This is the regression
// net for pooled-Reset state leaks (stuck-at column tables, retention
// timestamps, epoch checkpoints, parity tracking, fault hooks, subarray and
// engine shapes).
func TestPoolReuseInterleavedFaultyCleanRuns(t *testing.T) {
	const lanes = 64
	plain, err := Compile(recAdderSrc, Options{Target: Ambit})
	if err != nil {
		t.Fatal(err)
	}
	rec, err := Compile(recAdderSrc, Options{Target: Ambit,
		Recovery: Recovery{Detector: DetectorParity, EpochUops: 64, MaxRetries: 2}})
	if err != nil {
		t.Fatal(err)
	}
	ref, err := plain.RunRows(recRows(t, plain, lanes), lanes)
	if err != nil {
		t.Fatal(err)
	}

	// Two 512-lane tiles, the second partial, against a+b computed here.
	tiled, err := Compile(recAdderSrc, Options{Target: SIMDRAM, Geometry: paperGeom()})
	if err != nil {
		t.Fatal(err)
	}
	tiledLanes := 2*paperGeom().Bitlines() - 100
	tiledIn := map[string][][]uint64{}
	for name, vals := range recInputs(tiledLanes) {
		for _, v := range vals {
			tiledIn[name] = append(tiledIn[name], []uint64{v})
		}
	}
	runTiled := func(round int, after string) {
		t.Helper()
		res, err := tiled.RunTiledCtx(nil, tiledIn, tiledLanes)
		if err != nil {
			t.Fatal(err)
		}
		for l, got := range res.Outputs["s"] {
			if want := (tiledIn["a"][l][0] + tiledIn["b"][l][0]) & 0xff; got[0] != want {
				t.Fatalf("round %d: tiled run after the %s run: lane %d = %d, want %d (pooled worker state leaked)", round, after, l, got[0], want)
			}
		}
	}
	cfg := FaultConfig{
		TRAFlipRate:   0.01,
		RetentionRate: 0.2,
		RefreshOps:    32,
		StuckColumns:  []StuckColumn{{Lane: 11, High: true}},
	}
	var faultyRef, recRef *RunResult
	for i := 0; i < 8; i++ {
		fr, err := plain.RunRowsUnderFault(recRows(t, plain, lanes), lanes, cfg, 5)
		if err != nil {
			t.Fatal(err)
		}
		runTiled(i, "faulty")
		rr, err := rec.RunRowsUnderFault(recRows(t, rec, lanes), lanes, cfg, 5)
		if err != nil {
			t.Fatal(err)
		}
		runTiled(i, "recovered")
		clean, err := plain.RunRows(recRows(t, plain, lanes), lanes)
		if err != nil {
			t.Fatal(err)
		}
		runTiled(i, "clean")
		if i == 0 {
			faultyRef, recRef = fr, rr
			if fr.Faults.Total() == 0 {
				t.Fatal("fault config injected nothing; interleave test is vacuous")
			}
			if rr.RecoveryStats.Detections == 0 {
				t.Fatal("recovered run detected nothing; interleave test is vacuous")
			}
			continue
		}
		if !reflect.DeepEqual(fr.Rows, faultyRef.Rows) || fr.Faults != faultyRef.Faults {
			t.Fatalf("round %d: faulty run drifted (pooled injector leaked state)", i)
		}
		if !reflect.DeepEqual(rr.Rows, recRef.Rows) || rr.RecoveryStats != recRef.RecoveryStats {
			t.Fatalf("round %d: recovered run drifted: %+v vs %+v", i, rr.RecoveryStats, recRef.RecoveryStats)
		}
		if !reflect.DeepEqual(clean.Rows, ref.Rows) {
			t.Fatalf("round %d: clean run corrupted by pooled state from faulty runs", i)
		}
		if clean.Faults.Total() != 0 || clean.RecoveryStats != (RecoveryStats{}) {
			t.Fatalf("round %d: clean run reports fault/recovery activity: %+v %+v",
				i, clean.Faults, clean.RecoveryStats)
		}
	}

	// A run's RecoveryStats are the run's, not the pooled machine's: after a
	// kernel with a far larger row footprint has grown the pooled subarray's
	// arena, the recovered run must report what it reported before —
	// CheckpointBytes included, which counts the rows a snapshot held, not
	// the arena's high-water mark.
	wide, err := Compile(guardMulSrc, Options{Target: Ambit})
	if err != nil {
		t.Fatal(err)
	}
	if wide.Prog().DRowsUsed < 4*rec.Prog().DRowsUsed {
		t.Fatalf("the wide kernel uses %d rows against %d; the arena would not outgrow the recovered run",
			wide.Prog().DRowsUsed, rec.Prog().DRowsUsed)
	}
	if _, err := wide.RunRows(recRows(t, wide, lanes), lanes); err != nil {
		t.Fatal(err)
	}
	again, err := rec.RunRowsUnderFault(recRows(t, rec, lanes), lanes, cfg, 5)
	if err != nil {
		t.Fatal(err)
	}
	if again.RecoveryStats != recRef.RecoveryStats {
		t.Fatalf("recovered run after a wider kernel reports different stats (pooled arena size leaked):\n %+v\n %+v",
			again.RecoveryStats, recRef.RecoveryStats)
	}
}

// TestPoolReuseResultsOwnTheirRows: a run copies its operands in and its
// outputs out, so no pooled worker holds a caller's memory and no result is
// a view of a worker. A RunRows result stays bit-identical while further
// runs on the same goroutine — RunRows on other inputs, RunBatch, RunWide —
// check out the pooled worker it ran on; the run leaves its caller's rows
// as they were; and bit-rows longer than Words(lanes), with garbage above
// the lane count in their tail word, give the outputs exact rows give.
func TestPoolReuseResultsOwnTheirRows(t *testing.T) {
	const lanes = 100 // a partial tail word
	k, err := Compile(equivSrc, Options{Target: Ambit})
	if err != nil {
		t.Fatal(err)
	}
	clone := func(rows map[string][][]uint64) map[string][][]uint64 {
		c := make(map[string][][]uint64, len(rows))
		for name, op := range rows {
			for _, row := range op {
				c[name] = append(c[name], append([]uint64(nil), row...))
			}
		}
		return c
	}
	rows := equivInputs(lanes, 1)
	callers := clone(rows)
	first, err := k.RunRows(rows, lanes)
	if err != nil {
		t.Fatal(err)
	}
	want := clone(first.Rows)

	other, err := k.RunRows(equivInputs(lanes, 2), lanes)
	if err != nil {
		t.Fatal(err)
	}
	if sameRows(other.Rows, want) {
		t.Fatal("other inputs give the same outputs; the test is vacuous")
	}
	vals, wide := map[string][]uint64{}, map[string][][]uint64{}
	for _, in := range k.Inputs {
		for l := 0; l < lanes; l++ {
			v := uint64(l*37+len(in.Name)*11) & 0xff
			vals[in.Name] = append(vals[in.Name], v)
			wide[in.Name] = append(wide[in.Name], []uint64{v})
		}
	}
	if _, _, err := k.RunBatch([]BatchRun{{Inputs: vals, Lanes: lanes}, {Inputs: vals, Lanes: lanes}}); err != nil {
		t.Fatal(err)
	}
	if _, err := k.RunWide(wide, lanes); err != nil {
		t.Fatal(err)
	}
	if !sameRows(first.Rows, want) {
		t.Error("a RunRows result changed under later runs on the pooled worker: it is a view of the worker")
	}
	if !sameRows(rows, callers) {
		t.Error("RunRows wrote into its caller's input rows")
	}

	long := clone(rows)
	for _, op := range long {
		for bit, row := range op {
			row[len(row)-1] |= ^laneMaskFor(lanes)
			op[bit] = append(row, ^uint64(0))
		}
	}
	callers = clone(long)
	got, err := k.RunRows(long, lanes)
	if err != nil {
		t.Fatal(err)
	}
	if !sameRows(got.Rows, want) {
		t.Error("rows longer than Words(lanes), garbage above the lane count, give other outputs than exact rows")
	}
	if !sameRows(long, callers) {
		t.Error("RunRows wrote into its caller's longer input rows")
	}
}

// TestPoolReuseTiledAfterMidRunCancel cancels tiled runs from inside, at a
// sweep of guard checkpoints — between tiles, inside a tile's execution
// loop, inside a shard's emit+replay — so half-used subarrays, spill
// stores, row buffers and timing engines go back to their pools. Every
// canceled run is a kernel's first (a warm kernel has no emission left to
// cancel), must return ErrCanceled and no result, promptly (a bounded
// number of checkpoints after the cancel), and may leave only completed
// replays on the kernel; the two clean runs that follow on it — the first
// schedules what the canceled one did not store, the second finds
// everything — must be bit-identical to the reference.
func TestPoolReuseTiledAfterMidRunCancel(t *testing.T) {
	src := "node main(a: u8, b: u8) returns (z: u8, c: u1) let z = a * b; c = a < b; tel"
	compile := func() *Kernel {
		t.Helper()
		k, err := Compile(src, Options{Target: Ambit, Geometry: shardGeom(2)})
		if err != nil {
			t.Fatal(err)
		}
		return k
	}
	lanes := 6*tinyGeom().Bitlines() - 5
	in := map[string][][]uint64{"a": make([][]uint64, lanes), "b": make([][]uint64, lanes)}
	for l := 0; l < lanes; l++ {
		in["a"][l] = []uint64{uint64(l*7) & 0xFF}
		in["b"][l] = []uint64{uint64(l*13+5) & 0xFF}
	}
	ref, err := compile().RunTiledCtx(nil, in, lanes)
	if err != nil {
		t.Fatal(err)
	}
	counter := &checkCtx{Context: context.Background(), live: 1 << 40}
	if _, err := compile().RunTiledCtx(counter, in, lanes); err != nil {
		t.Fatal(err)
	}
	total := counter.checks.Load()
	if total < 12 {
		t.Fatalf("a full run consults only %d checkpoints; the cancel sweep is vacuous", total)
	}
	slack := int64(2*runtime.GOMAXPROCS(0) + 2) // each worker's in-flight job and loop check, plus the pool's own
	for live := int64(0); live < total; live += 1 + total/12 {
		k := compile()
		ctx := &checkCtx{Context: context.Background(), live: live}
		res, err := k.RunTiledCtx(ctx, in, lanes)
		if !errors.Is(err, ErrCanceled) {
			t.Fatalf("cancel after %d checkpoints: error %v does not match ErrCanceled", live, err)
		}
		if res != nil {
			t.Fatalf("cancel after %d checkpoints returned a result", live)
		}
		if late := ctx.checks.Load() - live; late > slack {
			t.Errorf("cancel after %d checkpoints: run consulted %d more before stopping, want <= %d", live, late, slack)
		}
		for key, st := range k.shards {
			if st.eng.Ops != key.tiles*len(k.prog.Ops) {
				t.Fatalf("cancel after %d checkpoints stored a %d-tile replay stopped at %d of %d commands",
					live, key.tiles, st.eng.Ops, key.tiles*len(k.prog.Ops))
			}
		}
		for _, pass := range []string{"first", "second"} {
			clean, err := k.RunTiledCtx(nil, in, lanes)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(clean, ref) {
				t.Fatalf("%s clean run after a cancel at checkpoint %d differs from the reference (pooled or memoized state leaked)", pass, live)
			}
		}
	}
}

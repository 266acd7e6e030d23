package chopper

import (
	"context"
	"reflect"
	"sync"
	"testing"

	"chopper/internal/dram"
	"chopper/internal/transpose"
	"chopper/internal/vircoe"
)

const memoSrc = "node main(a: u8, b: u8) returns (z: u8, c: u1) let z = a * b; c = a < b; tel"

func memoInputs(lanes int) map[string][][]uint64 {
	in := map[string][][]uint64{"a": make([][]uint64, lanes), "b": make([][]uint64, lanes)}
	for l := 0; l < lanes; l++ {
		in["a"][l] = []uint64{uint64(l*7) & 0xFF}
		in["b"][l] = []uint64{uint64(l*13+5) & 0xFF}
	}
	return in
}

// shardOracle is the timing of a tiled run of `tiles` tiles computed with no
// pool, no streaming and no memo: every shard of the deal materialized by
// vircoe.Emit, replayed by Engine.RunCtx on a fresh engine, merged in shard
// order (the oracle of TestDeterminismRunTiledSharded, for any kernel).
func shardOracle(t *testing.T, k *Kernel, tiles int) (dram.EngineStats, vircoe.Stats) {
	t.Helper()
	geom := k.Opts.Geometry
	timing := dram.TimingFor(k.Opts.Target, geom)
	shards := min(geom.ChannelCount(), tiles)
	var eng dram.EngineStats
	var emit vircoe.Stats
	for s := 0; s < shards; s++ {
		count := tiles / shards
		if s < tiles%shards {
			count++
		}
		pls, err := vircoe.Placements(geom, count)
		if err != nil {
			t.Fatal(err)
		}
		mode := vircoe.BankAware
		if k.Opts.SALP {
			mode = vircoe.SubarrayAware
		}
		stream, st := vircoe.Emit(k.prog, pls, mode, timing)
		e := dram.NewEngine(geom, timing, k.Opts.SALP)
		if _, err := e.RunCtx(nil, stream, 0); err != nil {
			t.Fatal(err)
		}
		eng.Merge(e.Stats())
		emit.Merge(st)
	}
	return eng, emit
}

// TestRunTiledMemoMatchesOracle: a run that schedules its shards (a miss), a
// run that finds them on the kernel (a hit) and the memo-free oracle agree
// float for float. The tile counts interleave — 16, 5, 16 — so two keys per
// kernel are live at once, the third run is all hits, and the 5-tile deal
// over 4 channels (2+1+1+1) uses both distinct shard sizes of one run.
func TestRunTiledMemoMatchesOracle(t *testing.T) {
	for _, channels := range []int{1, 4} {
		for _, salp := range []bool{false, true} {
			k, err := Compile(memoSrc, Options{Target: Ambit, Geometry: shardGeom(channels), SALP: salp})
			if err != nil {
				t.Fatal(err)
			}
			var first *TiledResult
			for run, tiles := range []int{16, 5, 16} {
				lanes := tiles*tinyGeom().Bitlines() - 7
				res, err := k.RunTiledCtx(nil, memoInputs(lanes), lanes)
				if err != nil {
					t.Fatal(err)
				}
				wantEng, wantEmit := shardOracle(t, k, tiles)
				if res.Tiles != tiles || res.Stats != wantEng || res.Emit != wantEmit || res.TimeNs != wantEng.MakespanNs {
					t.Fatalf("channels=%d salp=%v run %d (%d tiles): timing diverged from the oracle:\n got %+v %+v\nwant %+v %+v",
						channels, salp, run, tiles, res.Stats, res.Emit, wantEng, wantEmit)
				}
				switch run {
				case 0:
					first = res
				case 2:
					if !reflect.DeepEqual(res, first) {
						t.Fatalf("channels=%d salp=%v: the all-hit run differs from the run that computed the memo", channels, salp)
					}
				}
			}
			// One entry per distinct shard size: {16, 5} on one channel,
			// {4, 2, 1} on four.
			if want := map[int]int{1: 2, 4: 3}[channels]; len(k.shards) != want {
				t.Errorf("channels=%d salp=%v: memo holds %d entries, want %d", channels, salp, len(k.shards), want)
			}
		}
	}
}

// TestRunTiledMemoFollowsOpts: the memo is keyed by the values a replay
// reads, so a caller who edits the exported Opts between runs gets what a
// kernel compiled with those options gives — never the earlier answer —
// and gets the earlier answer back, as a hit, on flipping them back.
func TestRunTiledMemoFollowsOpts(t *testing.T) {
	lanes := 12*tinyGeom().Bitlines() - 3
	in := memoInputs(lanes)
	run := func(k *Kernel) *TiledResult {
		t.Helper()
		res, err := k.RunTiledCtx(nil, in, lanes)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	compile := func(salp bool) *Kernel {
		t.Helper()
		k, err := Compile(memoSrc, Options{Target: Ambit, Geometry: shardGeom(1), SALP: salp})
		if err != nil {
			t.Fatal(err)
		}
		return k
	}
	k := compile(false)
	first := run(k)
	k.Opts.SALP = true
	got, want := run(k), run(compile(true))
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("SALP: edited kernel differs from a freshly compiled one:\n got %+v %+v\nwant %+v %+v",
			got.Stats, got.Emit, want.Stats, want.Emit)
	}
	if got.Stats == first.Stats && got.Emit == first.Emit {
		t.Fatal("SALP: timing equals the SALP-free run's; the step tests nothing")
	}
	k.Opts.SALP = false
	if again := run(k); !reflect.DeepEqual(again, first) {
		t.Fatal("flipping the option back does not give the first result back")
	}
	if len(k.shards) != 2 {
		t.Errorf("memo holds %d entries after 2 option sets", len(k.shards))
	}
}

// TestRunTiledShardMemoGate holds what a hit costs: no allocation, one look
// at ctx, no command issued — the value of the replay that filled the memo.
func TestRunTiledShardMemoGate(t *testing.T) {
	k, err := Compile(memoSrc, Options{Target: Ambit, Geometry: tinyGeom()})
	if err != nil {
		t.Fatal(err)
	}
	const tiles = 8
	timing := dram.TimingFor(Ambit, k.Opts.Geometry)
	want, err := k.replayShard(nil, tiles, timing, false)
	if err != nil {
		t.Fatal(err)
	}
	ctx := &checkCtx{Context: context.Background(), live: 1 << 40}
	if allocs := testing.AllocsPerRun(10, func() {
		if got, err := k.replayShard(ctx, tiles, timing, false); err != nil || got != want {
			t.Fatalf("hit returned %+v, %v; want %+v", got, err, want)
		}
	}); allocs != 0 {
		t.Errorf("a memo hit allocates %v times, want 0", allocs)
	}
	if got := ctx.checks.Load(); got != 11 { // AllocsPerRun warms up once
		t.Errorf("11 hits consulted ctx %d times, want once each", got)
	}
	if len(k.shards) != 1 {
		t.Errorf("memo holds %d entries for one key", len(k.shards))
	}
}

// TestRunRowsTimingMemoGate holds what timing a warm single-subarray run
// does: none. Its makespan and stats are the memo's one-tile shard —
// planted here with values no engine produces, so a run that timed itself
// would report something else — and the memo gains no entry.
func TestRunRowsTimingMemoGate(t *testing.T) {
	k, err := Compile(memoSrc, Options{Target: Ambit})
	if err != nil {
		t.Fatal(err)
	}
	in := memoInputs(64)
	rows := map[string][][]uint64{}
	for _, op := range k.Inputs {
		rows[op.Name] = transpose.ToVerticalWide(in[op.Name], op.Width, 64)
	}
	if _, err := k.RunRows(rows, 64); err != nil {
		t.Fatal(err)
	}
	key := shardKey{1, k.Opts.Geometry, dram.TimingFor(Ambit, k.Opts.Geometry), false}
	planted, ok := k.shards[key]
	if !ok || len(k.shards) != 1 {
		t.Fatalf("a cold run left %d memo entries, none the one-tile shard", len(k.shards))
	}
	planted.eng.Ops, planted.eng.MakespanNs = -1, 12345
	k.shards[key] = planted
	for _, run := range []func() (*RunResult, error){
		func() (*RunResult, error) { return k.RunRows(rows, 64) },
		func() (*RunResult, error) { return k.RunRowsUnderFault(rows, 64, FaultConfig{TRAFlipRate: 0.5}, 3) },
	} {
		res, err := run()
		if err != nil {
			t.Fatal(err)
		}
		if res.Stats != planted.eng || res.TimeNs != 12345 {
			t.Fatalf("a warm run reported %v %+v, not the memo's %+v", res.TimeNs, res.Stats, planted.eng)
		}
	}
	if len(k.shards) != 1 {
		t.Errorf("warm runs left %d memo entries", len(k.shards))
	}
}

// TestDeterminismTiledColdKernelConcurrent: eight goroutines make the first
// tiled run of one kernel at once. Several may schedule the same shard and
// store it; every result must be the one a lone run gives (the CI race job
// runs this under -race -cpu 1,4).
func TestDeterminismTiledColdKernelConcurrent(t *testing.T) {
	opts := Options{Target: Ambit, Geometry: shardGeom(4), SALP: true}
	lanes := 10*tinyGeom().Bitlines() - 7 // 3+3+2+2 tiles: two shard sizes
	in := memoInputs(lanes)
	lone, err := Compile(memoSrc, opts)
	if err != nil {
		t.Fatal(err)
	}
	want, err := lone.RunTiledCtx(nil, in, lanes)
	if err != nil {
		t.Fatal(err)
	}
	cold, err := Compile(memoSrc, opts)
	if err != nil {
		t.Fatal(err)
	}
	const callers = 8
	results := make([]*TiledResult, callers)
	errs := make([]error, callers)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < callers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			<-start
			results[g], errs[g] = cold.RunTiledCtx(context.Background(), in, lanes)
		}(g)
	}
	close(start)
	wg.Wait()
	for g := range results {
		if errs[g] != nil {
			t.Fatalf("caller %d: %v", g, errs[g])
		}
		if !reflect.DeepEqual(results[g], want) {
			t.Fatalf("caller %d: result differs from a lone run's:\n got %+v %+v\nwant %+v %+v", g, results[g].Stats, results[g].Emit, want.Stats, want.Emit)
		}
	}
	if len(cold.shards) != 2 {
		t.Errorf("memo holds %d entries for two shard sizes", len(cold.shards))
	}
}

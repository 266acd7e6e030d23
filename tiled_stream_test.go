package chopper

import (
	"context"
	"errors"
	"runtime"
	"sync/atomic"
	"testing"

	"chopper/internal/dram"
	"chopper/internal/workloads"
)

// tiled16Geom is the benchmark's bank-oversubscribed tiled device: 1024
// lanes per tile, 4 banks x 8 subarrays per channel.
func tiled16Geom(channels int) dram.Geometry {
	return dram.Geometry{Banks: 4, SubarraysPB: 8, RowsPerSub: 1024, RowBytes: 128, ReservedRows: 18, Channels: channels}
}

// wideInputs fills every input of k with deterministic full-width values.
func wideInputs(k *Kernel, lanes int) map[string][][]uint64 {
	in := make(map[string][][]uint64, len(k.Inputs))
	for _, op := range k.Inputs {
		vals := make([][]uint64, lanes)
		limbs := (op.Width + 63) / 64
		for l := range vals {
			v := make([]uint64, limbs)
			for i := range v {
				v[i] = uint64(l*7+i*13+1) * 0x9e3779b97f4a7c15
			}
			if r := op.Width % 64; r != 0 {
				v[limbs-1] &= (uint64(1) << uint(r)) - 1
			}
			vals[l] = v
		}
		in[op.Name] = vals
	}
	return in
}

func compileWorkload(tb testing.TB, name string, opts Options) *Kernel {
	tb.Helper()
	spec, ok := workloads.Get(name)
	if !ok {
		tb.Fatalf("unknown workload %q", name)
	}
	k, err := Compile(spec.Src, opts)
	if err != nil {
		tb.Fatalf("%s: %v", name, err)
	}
	return k
}

// BenchmarkRunTiled16 is one RunTiledCtx over 16 tiles (16384 lanes) per
// iteration, for the four paper kernels on the three device configurations
// the repo benchmark's tiled_16 workload runs. Profile it with
// -cpuprofile to see where the tiled path's host time goes.
func BenchmarkRunTiled16(b *testing.B) {
	for _, name := range []string{"DenseNet-16", "WTC-64", "DiffGen-64", "SW-64"} {
		for _, cfg := range []struct {
			path     string
			channels int
			salp     bool
		}{{"ch1", 1, false}, {"ch4", 4, false}, {"salp", 1, true}} {
			b.Run(name+"/"+cfg.path, func(b *testing.B) {
				k := compileWorkload(b, name, Options{Target: Ambit, Geometry: tiled16Geom(cfg.channels), SALP: cfg.salp})
				lanes := 16 * k.Opts.Geometry.Bitlines()
				in := wideInputs(k, lanes)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := k.RunTiledCtx(nil, in, lanes); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// checkCtx is a context that cancels itself after its Err method has been
// consulted `live` times: a deterministic way to cancel a run at a chosen
// guard checkpoint, from inside the run.
type checkCtx struct {
	context.Context
	live   int64
	checks atomic.Int64
}

func (c *checkCtx) Err() error {
	if c.checks.Add(1) > c.live {
		return context.Canceled
	}
	return nil
}

// TestRunTiledAllocGate holds the shape of a warm RunTiledCtx: one call may
// allocate its own output and a pool miss or two — not the issue stream,
// not a limb slice per lane, and, the shards being scheduled once per
// kernel, no engine tables or per-op latency arrays either (measured 537 KB
// against 524 KB of outputs). Re-materializing tiles x program length
// Placed values, as the path did before it streamed, is two orders of
// magnitude over the bound.
func TestRunTiledAllocGate(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a 16-tile workload kernel")
	}
	k := compileWorkload(t, "DenseNet-16", Options{Target: Ambit, Geometry: tiled16Geom(1)})
	lanes := 16 * k.Opts.Geometry.Bitlines()
	in := wideInputs(k, lanes)
	run := func() {
		if _, err := k.RunTiledCtx(nil, in, lanes); err != nil {
			t.Fatal(err)
		}
	}
	run() // fill the scratch pool and the kernel's shard memo
	const runs = 4
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		run()
	}
	runtime.ReadMemStats(&after)
	perRun := (after.TotalAlloc - before.TotalAlloc) / runs

	var outBytes uint64
	for _, o := range k.Outputs {
		outBytes += uint64(lanes) * uint64(24+8*((o.Width+63)/64)) // slice header + limbs per lane
	}
	t.Logf("%d B/run; outputs %d B; the issue stream has %d commands", perRun, outBytes, 16*len(k.prog.Ops))
	if limit := 2 * outBytes; perRun > limit {
		t.Errorf("RunTiledCtx allocates %d B per run, over 2x its %d B of outputs", perRun, outBytes)
	}
}

// TestReplayShardStopsEmissionOnCancel cancels a shard's replay from inside
// it, at its third guard checkpoint: the emitter must stop there (no
// further checkpoint is consulted, no further command issued), the stop
// must carry the sentinel, and the stopped replay must not be memoized.
func TestReplayShardStopsEmissionOnCancel(t *testing.T) {
	src := "node main(a: u8, b: u8) returns (z: u8) let z = a * b; tel"
	k, err := Compile(src, Options{Target: Ambit, Geometry: tinyGeom()})
	if err != nil {
		t.Fatal(err)
	}
	const tiles = 8
	if total := tiles * len(k.prog.Ops); total < 4*256 {
		t.Fatalf("stream of %d commands is too short to cancel mid-replay", total)
	}
	timing := dram.TimingFor(Ambit, k.Opts.Geometry)
	ctx := &checkCtx{Context: context.Background(), live: 2}
	stopped, err := k.replayShard(ctx, tiles, timing, false)
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("error %v does not match ErrCanceled", err)
	}
	if got := ctx.checks.Load(); got != 3 {
		t.Errorf("%d guard checkpoints consulted, want 3 (emission ran on after the stop)", got)
	}
	if stopped.eng.Ops != 2*256 {
		t.Errorf("%d commands issued, want the %d before the third checkpoint", stopped.eng.Ops, 2*256)
	}
	// The stopped replay stored nothing: the next one schedules the whole
	// shard, unaffected by the pooled engine the canceled one returned, and
	// only the one after that finds it on the kernel.
	if len(k.shards) != 0 {
		t.Fatalf("a canceled replay left %d memo entries", len(k.shards))
	}
	total := tiles * len(k.prog.Ops)
	miss := &checkCtx{Context: context.Background(), live: 1 << 40}
	want, err := k.replayShard(miss, tiles, timing, false)
	if err != nil {
		t.Fatal(err)
	}
	if want.eng.Ops != total {
		t.Errorf("full replay issued %d commands, want %d", want.eng.Ops, total)
	}
	if got, emitting := miss.checks.Load(), int64((total+255)/256+1); got != emitting {
		t.Errorf("replay after a canceled one consulted %d checkpoints, want the %d of a full emission", got, emitting)
	}
	hit := &checkCtx{Context: context.Background(), live: 1 << 40}
	got, err := k.replayShard(hit, tiles, timing, false)
	if err != nil || got != want {
		t.Fatalf("memo hit: %+v, %v; want %+v", got, err, want)
	}
	if n := hit.checks.Load(); n != 1 {
		t.Errorf("memo hit consulted %d checkpoints, want 1 (it emitted again)", n)
	}
	// A hit still observes its context.
	if _, err := k.replayShard(&checkCtx{Context: context.Background()}, tiles, timing, false); !errors.Is(err, ErrCanceled) {
		t.Errorf("memo hit under a canceled context: error %v does not match ErrCanceled", err)
	}
}

// A tag that names a bit outside the kernel's operands (a compiler bug, not
// an input error) must surface as an error before anything runs, not as an
// index panic inside a tile worker.
func TestRunTiledRejectsTagOutsideOperands(t *testing.T) {
	src := "node main(a: u8, b: u8) returns (z: u8) let z = a + b; tel"
	lanes := 2 * tinyGeom().Bitlines()
	in := map[string][][]uint64{"a": make([][]uint64, lanes), "b": make([][]uint64, lanes)}
	for l := 0; l < lanes; l++ {
		in["a"][l], in["b"][l] = []uint64{1}, []uint64{2}
	}
	for _, bad := range []string{"a[8]", "nosuch[0]", "a"} {
		k, err := Compile(src, Options{Target: Ambit, Geometry: tinyGeom()})
		if err != nil {
			t.Fatal(err)
		}
		k.inputTag[bad] = 0
		if res, err := k.RunTiledCtx(nil, in, lanes); err == nil || res != nil {
			t.Errorf("input tag %q: got result %v, error %v; want an error", bad, res, err)
		}
	}
}

package chopper

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"chopper/internal/dram"
	"chopper/internal/vircoe"
	"chopper/internal/workloads"
)

// tinyGeom shrinks the subarray SIMD width so tiled tests stay fast: 64
// lanes per tile (8-byte rows), 4 banks.
func tinyGeom() dram.Geometry {
	return dram.Geometry{Banks: 4, SubarraysPB: 4, RowsPerSub: 256, RowBytes: 8, ReservedRows: 18}
}

// paperGeom is the device the paper-workload tiled tests run on: 512-lane
// tiles (64-byte rows), 4 banks of 8 subarrays.
func paperGeom() dram.Geometry {
	return dram.Geometry{Banks: 4, SubarraysPB: 8, RowsPerSub: 1024, RowBytes: 64, ReservedRows: 18}
}

func TestRunTiledMatchesRunWide(t *testing.T) {
	src := "node main(a: u8, b: u8) returns (z: u8, c: u1) let z = a + b; c = a < b; tel"
	k, err := Compile(src, Options{Target: Ambit, Geometry: tinyGeom()})
	if err != nil {
		t.Fatal(err)
	}
	lanes := 300 // 5 tiles of 64 lanes, last one partial
	aw := make([][]uint64, lanes)
	bw := make([][]uint64, lanes)
	for l := 0; l < lanes; l++ {
		aw[l] = []uint64{uint64(l*7) & 0xFF}
		bw[l] = []uint64{uint64(l*13+5) & 0xFF}
	}
	res, err := k.RunTiled(map[string][][]uint64{"a": aw, "b": bw}, lanes)
	if err != nil {
		t.Fatal(err)
	}
	if res.Tiles != 5 {
		t.Errorf("tiles = %d, want 5", res.Tiles)
	}
	if res.TimeNs <= 0 {
		t.Error("no time accounted")
	}
	for l := 0; l < lanes; l++ {
		wantZ := (aw[l][0] + bw[l][0]) & 0xFF
		var wantC uint64
		if aw[l][0] < bw[l][0] {
			wantC = 1
		}
		if res.Outputs["z"][l][0] != wantZ || res.Outputs["c"][l][0] != wantC {
			t.Fatalf("lane %d: z=%d/%d c=%d/%d", l, res.Outputs["z"][l][0], wantZ, res.Outputs["c"][l][0], wantC)
		}
	}
}

func TestRunTiledFasterThanImpliedSerial(t *testing.T) {
	// 4 tiles across 4 banks must finish in well under 4x one tile's time.
	src := "node main(a: u8, b: u8) returns (z: u8) let z = a * b; tel"
	k, err := Compile(src, Options{Target: Ambit, Geometry: tinyGeom()})
	if err != nil {
		t.Fatal(err)
	}
	mk := func(lanes int) float64 {
		aw := make([][]uint64, lanes)
		bw := make([][]uint64, lanes)
		for l := range aw {
			aw[l] = []uint64{uint64(l) & 0xFF}
			bw[l] = []uint64{uint64(l+3) & 0xFF}
		}
		res, err := k.RunTiled(map[string][][]uint64{"a": aw, "b": bw}, lanes)
		if err != nil {
			t.Fatal(err)
		}
		return res.TimeNs
	}
	one := mk(64)
	four := mk(256)
	if four > 2.2*one {
		t.Errorf("4 tiles on 4 banks took %.0f ns vs %.0f ns for one: no overlap", four, one)
	}
}

func TestRunTiledRejectsOversizedData(t *testing.T) {
	k, err := Compile("node main(a: u8) returns (z: u8) let z = a + 1; tel",
		Options{Target: Ambit, Geometry: tinyGeom()})
	if err != nil {
		t.Fatal(err)
	}
	huge := tinyGeom().Banks*tinyGeom().SubarraysPB*tinyGeom().Bitlines() + 1
	if _, err := k.RunTiled(map[string][][]uint64{"a": make([][]uint64, huge)}, huge); err == nil {
		t.Error("oversized dataset accepted")
	}
	if _, err := k.RunTiled(map[string][][]uint64{"a": {{1}}}, 5); err == nil {
		t.Error("short input accepted")
	}
}

// shardGeom is tinyGeom over several channels: 64-lane tiles whose timing
// replay shards across 4 per-channel engines.
func shardGeom(channels int) dram.Geometry {
	g := tinyGeom()
	g.Channels = channels
	return g
}

// TestRunTiledGoldenSerialEquivalence pins the Channels=1 sharded path to
// the pre-sharding serial replay on the four paper workloads: one shard is
// the whole stream, so the makespan and every engine counter must be
// float-identical to a hand-built serial engine run over the same
// placements — not merely close.
func TestRunTiledGoldenSerialEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("runs four workload kernels tiled")
	}
	geom := paperGeom()
	timing := dram.TimingFor(Ambit, geom)
	for _, name := range []string{"DenseNet-16", "WTC-64", "DiffGen-64", "SW-64"} {
		spec, ok := workloads.Get(name)
		if !ok {
			t.Fatalf("unknown workload %q", name)
		}
		k, err := Compile(spec.Src, Options{Target: Ambit, Geometry: geom})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		lanes := 5*geom.Bitlines() - 37 // 5 tiles, last one partial
		in := make(map[string][][]uint64, len(k.Inputs))
		for _, op := range k.Inputs {
			vals := make([][]uint64, lanes)
			limbs := (op.Width + 63) / 64
			for l := range vals {
				v := make([]uint64, limbs)
				for i := range v {
					v[i] = uint64(l*7+i*13) * 0x9e3779b97f4a7c15
				}
				if r := op.Width % 64; r != 0 {
					v[limbs-1] &= (uint64(1) << uint(r)) - 1
				}
				vals[l] = v
			}
			in[op.Name] = vals
		}
		res, err := k.RunTiled(in, lanes)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if res.Channels != 1 {
			t.Fatalf("%s: %d shards on a 1-channel geometry", name, res.Channels)
		}

		// The reference replay: exactly what RunTiled did before sharding.
		pls, err := vircoe.Placements(geom, res.Tiles)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		stream, emitStats := vircoe.Emit(k.prog, pls, vircoe.BankAware, timing)
		eng := dram.NewEngine(geom, timing, false)
		wantNs, err := eng.RunCtx(nil, stream, 0)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if res.TimeNs != wantNs {
			t.Errorf("%s: sharded makespan %v != serial %v", name, res.TimeNs, wantNs)
		}
		if res.Stats != eng.Stats() {
			t.Errorf("%s: sharded stats diverged:\n got %+v\nwant %+v", name, res.Stats, eng.Stats())
		}
		if res.Emit != emitStats {
			t.Errorf("%s: emitter stats diverged:\n got %+v\nwant %+v", name, res.Emit, emitStats)
		}
	}
}

// TestDeterminismRunTiledSharded repeats a Channels=4 tiled run and
// requires the full result — outputs, device/transfer/end-to-end times,
// merged engine and emitter stats — to be byte-identical, at any worker
// count (the CI race job reruns this under -cpu 1,4). The timing shards
// run in the same job set as the functional tiles, so the test also pins
// the merged timing to an oracle that involves no pool at all: each
// shard's stream materialized by vircoe.Emit, replayed by Engine.RunCtx,
// merged in shard order.
func TestDeterminismRunTiledSharded(t *testing.T) {
	src := "node main(a: u8, b: u8) returns (z: u8, c: u1) let z = a + b; c = a < b; tel"
	k, err := Compile(src, Options{Target: Ambit, Geometry: shardGeom(4), SALP: true})
	if err != nil {
		t.Fatal(err)
	}
	lanes := 10*tinyGeom().Bitlines() - 7 // 10 tiles across 4 shards, uneven
	in := map[string][][]uint64{"a": make([][]uint64, lanes), "b": make([][]uint64, lanes)}
	for l := 0; l < lanes; l++ {
		in["a"][l] = []uint64{uint64(l*7) & 0xFF}
		in["b"][l] = []uint64{uint64(l*13+5) & 0xFF}
	}
	r1, err := k.RunTiled(in, lanes)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Channels != 4 {
		t.Fatalf("sharded over %d channels, want 4", r1.Channels)
	}
	r2, err := k.RunTiled(in, lanes)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(r1.Outputs, r2.Outputs) {
		t.Fatal("repeat sharded RunTiled outputs diverged")
	}
	if r1.TimeNs != r2.TimeNs || r1.TransferNs != r2.TransferNs ||
		r1.OverlapNs != r2.OverlapNs || r1.EndToEndNs != r2.EndToEndNs {
		t.Fatalf("repeat sharded RunTiled timing diverged: %+v vs %+v", r1, r2)
	}
	if r1.Stats != r2.Stats || r1.Emit != r2.Emit {
		t.Fatal("repeat sharded RunTiled stats diverged")
	}
	if r1.EndToEndNs != r1.TimeNs+r1.TransferNs-r1.OverlapNs {
		t.Fatalf("end-to-end identity broken: %+v", r1)
	}

	geom := k.Opts.Geometry
	timing := dram.TimingFor(Ambit, geom)
	var wantEng dram.EngineStats
	var wantEmit vircoe.Stats
	for s := 0; s < 4; s++ {
		count := r1.Tiles / 4
		if s < r1.Tiles%4 {
			count++
		}
		pls, err := vircoe.Placements(geom, count)
		if err != nil {
			t.Fatal(err)
		}
		stream, emitStats := vircoe.Emit(k.prog, pls, vircoe.SubarrayAware, timing)
		eng := dram.NewEngine(geom, timing, true)
		if _, err := eng.RunCtx(nil, stream, 0); err != nil {
			t.Fatal(err)
		}
		wantEng.Merge(eng.Stats())
		wantEmit.Merge(emitStats)
	}
	for i := 0; i < 8; i++ {
		r, err := k.RunTiled(in, lanes)
		if err != nil {
			t.Fatal(err)
		}
		if r.Stats != wantEng || r.Emit != wantEmit || r.TimeNs != wantEng.MakespanNs {
			t.Fatalf("run %d: overlapped timing diverged from the serial oracle:\n got %+v %+v\nwant %+v %+v", i, r.Stats, r.Emit, wantEng, wantEmit)
		}
		if !reflect.DeepEqual(r.Outputs, r1.Outputs) {
			t.Fatalf("run %d: outputs diverged", i)
		}
	}
}

// TestRunTiledShardedFasterThanSerial is the point of the sharding: with
// the banks oversubscribed (16 tiles on 4 banks at one channel), spreading
// the same tiles across 4 channels must cut the device makespan well below
// the serial replay's — and at least halve the end-to-end time, transfers
// included. The four paper kernels run at 8,192 lanes on paperGeom, the
// device they have been tracked on since the sharding landed; their
// end-to-end times are simulated, hence exact, and pinned to the hundredth
// of a nanosecond.
func TestRunTiledShardedFasterThanSerial(t *testing.T) {
	paper := func(name string) string {
		spec, ok := workloads.Get(name)
		if !ok {
			t.Fatalf("unknown workload %q", name)
		}
		return spec.Src
	}
	cases := []struct {
		name, src       string
		geom            dram.Geometry
		serial, sharded string // pinned EndToEndNs at 1 and 4 channels; "" pins nothing
	}{
		{name: "mul8", src: "node main(a: u8, b: u8) returns (z: u8) let z = a * b; tel", geom: tinyGeom()},
		{"DenseNet-16", paper("DenseNet-16"), paperGeom(), "5624023.70", "1406913.76"},
		{"WTC-64", paper("WTC-64"), paperGeom(), "11826874.03", "2957626.34"},
		{"DiffGen-64", paper("DiffGen-64"), paperGeom(), "345002.43", "87158.44"},
		{"SW-64", paper("SW-64"), paperGeom(), "1554811.64", "389610.75"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if tc.serial != "" && testing.Short() {
				t.Skip("runs a workload kernel over 16 tiles twice")
			}
			mk := func(channels int) *TiledResult {
				geom := tc.geom
				geom.Channels = channels
				k, err := Compile(tc.src, Options{Target: Ambit, Geometry: geom})
				if err != nil {
					t.Fatal(err)
				}
				lanes := 16 * geom.Bitlines()
				res, err := k.RunTiled(randWideInputs(rand.New(rand.NewSource(1)), k.Inputs, lanes), lanes)
				if err != nil {
					t.Fatal(err)
				}
				if res.Tiles != 16 {
					t.Fatalf("%d tiles, want 16", res.Tiles)
				}
				if res.TransferNs <= 0 || res.EndToEndNs != res.TimeNs+res.TransferNs-res.OverlapNs {
					t.Errorf("%d channels: end-to-end %v is not device %v + transfer %v - overlap %v",
						channels, res.EndToEndNs, res.TimeNs, res.TransferNs, res.OverlapNs)
				}
				return res
			}
			serial := mk(1)
			sharded := mk(4)
			if !reflect.DeepEqual(serial.Outputs, sharded.Outputs) {
				t.Error("functional outputs depend on the channel count")
			}
			if sharded.TimeNs >= 0.5*serial.TimeNs {
				t.Errorf("4-channel makespan %.0f ns not well under serial %.0f ns", sharded.TimeNs, serial.TimeNs)
			}
			if serial.EndToEndNs < 2*sharded.EndToEndNs {
				t.Errorf("4-channel end-to-end %.0f ns not 2x under serial %.0f ns", sharded.EndToEndNs, serial.EndToEndNs)
			}
			if tc.serial == "" {
				return
			}
			if got := fmt.Sprintf("%.2f", serial.EndToEndNs); got != tc.serial {
				t.Errorf("1-channel end-to-end %s ns, pinned %s", got, tc.serial)
			}
			if got := fmt.Sprintf("%.2f", sharded.EndToEndNs); got != tc.sharded {
				t.Errorf("4-channel end-to-end %s ns, pinned %s", got, tc.sharded)
			}
		})
	}
}

// TestRunTiledBudgetShardIdentity: the dram-commands budget stop must be
// the same error — dimension, limit, count — at every channel count, even
// though the 4-channel replay never materializes the serial stream.
func TestRunTiledBudgetShardIdentity(t *testing.T) {
	src := "node main(a: u8, b: u8) returns (z: u8) let z = a + b; tel"
	lanes := 4 * tinyGeom().Bitlines()
	in := map[string][][]uint64{"a": make([][]uint64, lanes), "b": make([][]uint64, lanes)}
	for l := 0; l < lanes; l++ {
		in["a"][l] = []uint64{uint64(l) & 0xFF}
		in["b"][l] = []uint64{uint64(l+1) & 0xFF}
	}
	var stops []error
	for _, channels := range []int{1, 4} {
		k, err := Compile(src, Options{
			Target:   Ambit,
			Geometry: shardGeom(channels),
			Budget:   Budget{MaxDRAMCommands: 10},
		})
		if err != nil {
			t.Fatal(err)
		}
		res, err := k.RunTiledCtx(nil, in, lanes)
		if res != nil {
			t.Fatalf("channels=%d: budget stop returned a result", channels)
		}
		var be *BudgetError
		if !errors.As(err, &be) || be.Dimension != DimDRAMCommands || be.Limit != 10 || be.Count != 11 {
			t.Fatalf("channels=%d: want dram-commands BudgetError{10,11}, got %v", channels, err)
		}
		stops = append(stops, err)
	}
	if !reflect.DeepEqual(stops[0], stops[1]) {
		t.Fatalf("budget stop differs across channel counts: %v vs %v", stops[0], stops[1])
	}
}

// TestRunTiledCancelSharded: a canceled context stops the sharded replay
// with the sentinel identity and no result.
func TestRunTiledCancelSharded(t *testing.T) {
	src := "node main(a: u8, b: u8) returns (z: u8) let z = a + b; tel"
	k, err := Compile(src, Options{Target: Ambit, Geometry: shardGeom(4)})
	if err != nil {
		t.Fatal(err)
	}
	lanes := 8 * tinyGeom().Bitlines()
	in := map[string][][]uint64{"a": make([][]uint64, lanes), "b": make([][]uint64, lanes)}
	for l := 0; l < lanes; l++ {
		in["a"][l] = []uint64{uint64(l) & 0xFF}
		in["b"][l] = []uint64{uint64(l+2) & 0xFF}
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := k.RunTiledCtx(ctx, in, lanes)
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("error %v does not match ErrCanceled", err)
	}
	if res != nil {
		t.Fatalf("canceled tiled run returned a result: %+v", res)
	}
}

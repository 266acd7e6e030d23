package fault

import (
	"math/rand"
	"testing"

	"chopper/internal/isa"
)

const lanes = 128

func row(pattern uint64) []uint64 { return []uint64{pattern, pattern} }

func TestZeroConfigInjectsNothing(t *testing.T) {
	if (Config{}).Enabled() {
		t.Fatal("zero Config reports Enabled")
	}
	in := New(Config{}, 7)
	data := row(0xdeadbeef)
	for op := 0; op < 100; op++ {
		in.AfterCompute(op, data, lanes)
		in.AfterCopy(op, data, lanes)
		in.BeforeLoad(op, isa.Row(3), data, lanes)
		in.AfterStore(op, isa.Row(3), data, lanes)
	}
	if data[0] != 0xdeadbeef || data[1] != 0xdeadbeef {
		t.Fatalf("data corrupted by zero config: %#x", data)
	}
	if in.Counts().Total() != 0 {
		t.Fatalf("counts = %+v, want zero", in.Counts())
	}
}

// Identical Config + seed must reproduce identical corruption.
func TestDeterministicAcrossInjectors(t *testing.T) {
	cfg := Config{TRAFlipRate: 0.3, CopyFlipRate: 0.2, RetentionRate: 0.5, RefreshOps: 4}
	mk := func(seed int64) ([]uint64, Counts) {
		in := New(cfg, seed)
		data := row(0x0123456789abcdef)
		for op := 0; op < 200; op++ {
			switch op % 3 {
			case 0:
				in.AfterCompute(op, data, lanes)
			case 1:
				in.AfterCopy(op, data, lanes)
			case 2:
				in.BeforeLoad(op, isa.Row(op%7), data, lanes)
			}
		}
		return data, in.Counts()
	}
	d1, c1 := mk(42)
	d2, c2 := mk(42)
	if d1[0] != d2[0] || d1[1] != d2[1] {
		t.Fatalf("same seed diverged: %#x vs %#x", d1, d2)
	}
	if c1 != c2 {
		t.Fatalf("same seed counts diverged: %+v vs %+v", c1, c2)
	}
	if c1.Total() == 0 {
		t.Fatal("no faults injected at 30%/20%/50% rates over 200 ops")
	}
	d3, _ := mk(43)
	if d1[0] == d3[0] && d1[1] == d3[1] {
		t.Fatal("different seeds produced identical corruption (suspicious)")
	}
}

func TestMaxFaultsBudget(t *testing.T) {
	in := New(Config{TRAFlipRate: 1, MaxFaults: 3}, 1)
	data := row(0)
	for op := 0; op < 50; op++ {
		in.AfterCompute(op, data, lanes)
	}
	if got := in.Counts().TRAFlips; got != 3 {
		t.Fatalf("TRAFlips = %d, want MaxFaults = 3", got)
	}
}

func TestFirstOpWindow(t *testing.T) {
	in := New(Config{TRAFlipRate: 1, FirstOp: 10, MaxFaults: 1}, 1)
	data := row(0)
	for op := 0; op < 20; op++ {
		before := [2]uint64{data[0], data[1]}
		in.AfterCompute(op, data, lanes)
		if op < 10 && (data[0] != before[0] || data[1] != before[1]) {
			t.Fatalf("fault fired at op %d, before FirstOp=10", op)
		}
	}
	if in.Counts().TRAFlips != 1 {
		t.Fatalf("TRAFlips = %d, want exactly 1 at op 10", in.Counts().TRAFlips)
	}
}

func TestSingleLaneFlip(t *testing.T) {
	in := New(Config{TRAFlipRate: 1}, 9)
	data := row(0)
	in.AfterCompute(0, data, lanes)
	ones := 0
	for _, w := range data {
		for ; w != 0; w &= w - 1 {
			ones++
		}
	}
	if ones != 1 {
		t.Fatalf("TRA flip changed %d lanes, want exactly 1", ones)
	}
}

func TestStuckColumns(t *testing.T) {
	cfg := Config{StuckColumns: []StuckColumn{{Lane: 5, High: true}, {Lane: 70, High: false}, {Lane: 9999, High: true}}}
	in := New(cfg, 1)
	data := []uint64{0, ^uint64(0)}
	in.AfterStore(0, isa.Row(2), data, lanes)
	if data[0]>>5&1 != 1 {
		t.Fatal("lane 5 not stuck high")
	}
	if data[1]>>(70-64)&1 != 0 {
		t.Fatal("lane 70 not stuck low")
	}
	if in.Counts().StuckLanes != 2 {
		t.Fatalf("StuckLanes = %d, want 2 (out-of-range lane ignored)", in.Counts().StuckLanes)
	}

	// C-group constant rows are exempt.
	cdata := []uint64{0, 0}
	in.AfterStore(1, isa.C1, cdata, lanes)
	if cdata[0] != 0 {
		t.Fatal("stuck column applied to C-group row")
	}
}

func TestRetentionDecay(t *testing.T) {
	cfg := Config{RetentionRate: 1, RefreshOps: 10}
	in := New(cfg, 3)
	r := isa.Row(4)
	data := row(0)
	in.BeforeLoad(0, r, data, lanes) // first access: records, no decay
	if data[0] != 0 || data[1] != 0 {
		t.Fatal("decay on first access")
	}
	in.BeforeLoad(5, r, data, lanes) // idle 5 <= 10: refreshed
	if data[0] != 0 || data[1] != 0 {
		t.Fatal("decay within refresh threshold")
	}
	in.BeforeLoad(20, r, data, lanes) // idle 15 > 10: decays
	if in.Counts().DecayFlips != 1 {
		t.Fatalf("DecayFlips = %d, want 1", in.Counts().DecayFlips)
	}
	// A store also refreshes the row.
	in2 := New(cfg, 3)
	in2.AfterStore(0, r, data, lanes)
	in2.BeforeLoad(8, r, data, lanes)
	if in2.Counts().DecayFlips != 0 {
		t.Fatal("decay despite recent store")
	}
}

// Epoch replay contract: EpochRestore(0) reproduces the original draw
// bit-for-bit, EpochRestore(n>0) re-salts it, and the retention/budget
// bookkeeping rewinds with the state.
func TestEpochRestoreReplaysDeterministically(t *testing.T) {
	cfg := Config{TRAFlipRate: 0.3, RetentionRate: 0.4, RefreshOps: 4, MaxFaults: 16}
	run := func(in *Injector) ([]uint64, Counts) {
		data := row(0x0123456789abcdef)
		for op := 10; op < 60; op++ {
			switch op % 3 {
			case 0:
				in.AfterCompute(op, data, lanes)
			case 2:
				in.BeforeLoad(op, isa.Row(op%5), data, lanes)
			}
		}
		return data, in.Counts()
	}
	in := New(cfg, 9)
	in.EpochCheckpoint()
	d1, c1 := run(in)
	in.EpochRestore(0)
	d2, c2 := run(in)
	if d1[0] != d2[0] || d1[1] != d2[1] || c1 != c2 {
		t.Fatalf("attempt 0 replay diverged: %#x/%+v vs %#x/%+v", d1, c1, d2, c2)
	}
	in.EpochRestore(1)
	d3, _ := run(in)
	if d1[0] == d3[0] && d1[1] == d3[1] {
		t.Fatal("salted retry reproduced the original draw (retry would be pointless)")
	}
	if c := in.Counts(); c.Total() == 0 {
		t.Fatalf("restore wiped the running counts: %+v", c)
	}
}

// Scrub models a refresh pass: after it, rows are no longer stale, so no
// decay can fire until the idle window fills up again.
func TestScrubClearsRetentionState(t *testing.T) {
	in := New(Config{RetentionRate: 1, RefreshOps: 10}, 3)
	data := row(^uint64(0))
	in.AfterStore(0, isa.Row(1), data, lanes)
	in.BeforeLoad(50, isa.Row(1), data, lanes)
	if in.Counts().DecayFlips == 0 {
		t.Fatal("setup failed: no decay fired on a 50-op-stale row")
	}
	before := in.Counts()
	if n := in.Scrub(50); n == 0 {
		t.Fatal("scrub refreshed no rows")
	}
	fresh := row(^uint64(0))
	in.BeforeLoad(55, isa.Row(1), fresh, lanes)
	if in.Counts().DecayFlips != before.DecayFlips {
		t.Fatal("decay fired on a freshly scrubbed row")
	}
	in.BeforeLoad(120, isa.Row(1), fresh, lanes)
	if in.Counts().DecayFlips == before.DecayFlips {
		t.Fatal("decay stopped firing entirely after scrub; rows should age again")
	}
}

// Reset must make a pooled injector indistinguishable from a fresh New,
// including the epoch bookkeeping (checkpoint map, salt, saved budget)
// that recovery runs leave behind.
func TestResetClearsEpochState(t *testing.T) {
	cfg := Config{TRAFlipRate: 0.3, RetentionRate: 0.4, RefreshOps: 4}
	exercise := func(in *Injector) ([]uint64, Counts) {
		data := row(0xfeedface)
		for op := 0; op < 80; op++ {
			in.AfterCompute(op, data, lanes)
			in.BeforeLoad(op, isa.Row(op%3), data, lanes)
		}
		return data, in.Counts()
	}
	fresh := New(cfg, 21)
	wantData, wantCounts := exercise(fresh)

	used := New(cfg, 99)
	used.EpochCheckpoint()
	exercise(used)
	used.EpochRestore(3) // leaves a non-zero attempt salt armed
	used.Scrub(80)
	used.Reset(cfg, 21)
	gotData, gotCounts := exercise(used)
	if gotData[0] != wantData[0] || gotData[1] != wantData[1] || gotCounts != wantCounts {
		t.Fatalf("reset injector diverged from fresh New: %#x/%+v vs %#x/%+v",
			gotData, gotCounts, wantData, wantCounts)
	}
}

// TestThresholdMatchesFloatDraw holds fires to the float compare it
// replaced, x/2^53 < p for the hash's top 53 bits x, at the threshold and
// one either side of it and on random hashes, for rates from the least
// positive float64 to above one.
func TestThresholdMatchesFloatDraw(t *testing.T) {
	floatForm := func(p float64, h uint64) bool { return p > 0 && float64(h>>11)/(1<<53) < p }
	rng := rand.New(rand.NewSource(45))
	for _, p := range []float64{5e-324, 1e-4, 0.5, 1, 2} {
		at := threshold(p)
		for _, x := range []uint64{at - 1, at, at + 1} {
			if x >= 1<<53 { // at-1 wraps for at 0; no draw reaches 2^53
				continue
			}
			for _, low := range []uint64{0, 1<<11 - 1, rng.Uint64() & (1<<11 - 1)} {
				h := x<<11 | low
				if got, want := fires(at, h), floatForm(p, h); got != want {
					t.Errorf("p=%g x=%d (threshold %d): fires %v, float compare %v", p, x, at, got, want)
				}
			}
		}
		for range 10000 {
			if h := rng.Uint64(); fires(at, h) != floatForm(p, h) {
				t.Fatalf("p=%g h=%#x: fires %v, float compare %v", p, h, fires(at, h), floatForm(p, h))
			}
		}
	}
	for _, p := range []float64{0, -1} {
		if at := threshold(p); at != 0 {
			t.Errorf("rate %g: threshold %d, want 0 (never fires)", p, at)
		}
	}
}

package dram

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"chopper/internal/isa"
)

func TestDefaultGeometry(t *testing.T) {
	g := DefaultGeometry()
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if g.DRows() != 1006 {
		t.Errorf("DRows = %d, want 1006 (1024 - 2 C - 16 B)", g.DRows())
	}
	if g.Bitlines() != 65536 {
		t.Errorf("Bitlines = %d, want 65536 (8 KB row)", g.Bitlines())
	}
}

func TestWithRowsPerSubKeepsCapacity(t *testing.T) {
	g := DefaultGeometry()
	total := g.SubarraysPB * g.RowsPerSub
	for _, rows := range []int{512, 1024, 2048} {
		g2 := g.WithRowsPerSub(rows)
		if g2.SubarraysPB*g2.RowsPerSub != total {
			t.Errorf("rows=%d: capacity changed: %d*%d != %d", rows, g2.SubarraysPB, g2.RowsPerSub, total)
		}
		if err := g2.Validate(); err != nil {
			t.Errorf("rows=%d: %v", rows, err)
		}
	}
}

func TestWithRowsPerSubNonPositivePanicsDescriptively(t *testing.T) {
	g := DefaultGeometry()
	for _, rows := range []int{0, -5} {
		func() {
			defer func() {
				r := recover()
				if r == nil {
					t.Errorf("rows=%d: no panic", rows)
					return
				}
				if msg, ok := r.(string); !ok || !strings.Contains(msg, "must be positive") {
					t.Errorf("rows=%d: panic %v lacks a descriptive message", rows, r)
				}
			}()
			g.WithRowsPerSub(rows)
		}()
		if _, err := g.WithRowsPerSubChecked(rows); err == nil {
			t.Errorf("rows=%d: Checked accepted non-positive rows", rows)
		}
	}
}

func TestWithRowsPerSubNonDividing(t *testing.T) {
	g := DefaultGeometry() // 64 * 1024 = 65536 rows per bank
	// Checked surfaces the dropped capacity as an error.
	if _, err := g.WithRowsPerSubChecked(1000); err == nil {
		t.Error("Checked accepted rows=1000, which drops 536 rows of capacity")
	} else if !strings.Contains(err.Error(), "not divisible") {
		t.Errorf("unhelpful error: %v", err)
	}
	// The unchecked variant rounds down, explicitly and predictably.
	g2 := g.WithRowsPerSub(1000)
	if g2.RowsPerSub != 1000 || g2.SubarraysPB != 65 {
		t.Errorf("rounding wrong: got %d x %d, want 65 x 1000", g2.SubarraysPB, g2.RowsPerSub)
	}
	// Valid divisors agree between the two variants.
	gc, err := g.WithRowsPerSubChecked(512)
	if err != nil {
		t.Fatal(err)
	}
	if gc != g.WithRowsPerSub(512) {
		t.Error("checked and unchecked variants disagree on a valid divisor")
	}
	// Degenerate: rows larger than the bank never yields zero subarrays.
	if g3 := g.WithRowsPerSub(65536 + 1); g3.SubarraysPB < 1 {
		t.Errorf("SubarraysPB = %d, want >= 1", g3.SubarraysPB)
	}
}

func TestGeometryValidateRejectsBad(t *testing.T) {
	bad := Geometry{Banks: 0, SubarraysPB: 1, RowsPerSub: 64, RowBytes: 8192}
	if err := bad.Validate(); err == nil {
		t.Error("zero banks accepted")
	}
	bad2 := Geometry{Banks: 1, SubarraysPB: 1, RowsPerSub: 10, RowBytes: 8192, ReservedRows: 18}
	if err := bad2.Validate(); err == nil {
		t.Error("no data rows accepted")
	}
	// An isa.Row names D0 to D32767: one data row more cannot be addressed.
	edge := Geometry{Banks: 1, SubarraysPB: 1, RowsPerSub: 1<<15 + 18, RowBytes: 8, ReservedRows: 18}
	if err := edge.Validate(); err != nil {
		t.Errorf("%d data rows rejected: %v", edge.DRows(), err)
	}
	edge.RowsPerSub++
	if err := edge.Validate(); err == nil || !strings.Contains(err.Error(), "isa.Row") {
		t.Errorf("%d data rows: Validate = %v, want a row-width error", edge.DRows(), err)
	}
}

func TestTimingOrdering(t *testing.T) {
	g := DefaultGeometry()
	amb := TimingFor(isa.Ambit, g)
	elp := TimingFor(isa.ELP2IM, g)
	sd := TimingFor(isa.SIMDRAM, g)

	if amb.AAP != sd.AAP || amb.AP != sd.AP {
		t.Error("SIMDRAM must share the Ambit substrate timings")
	}
	if elp.AAP >= amb.AAP {
		t.Errorf("ELP2IM AAP (%.1f) not cheaper than Ambit (%.1f)", elp.AAP, amb.AAP)
	}
	if elp.AP >= amb.AP {
		t.Errorf("ELP2IM AP (%.1f) not cheaper than Ambit (%.1f)", elp.AP, amb.AP)
	}
	if amb.AAP <= amb.AP {
		t.Error("AAP (two activations) must cost more than AP (one)")
	}
	if amb.RowXferNs <= 0 {
		t.Error("row transfer time must be positive")
	}
}

func TestOpLatencies(t *testing.T) {
	tm := TimingFor(isa.Ambit, DefaultGeometry())
	aap := isa.NewAAP(isa.Row(0), isa.T0)
	ap := isa.NewAP(isa.T0, isa.T1, isa.T2)
	wr := isa.NewWrite(isa.Row(0), 0)
	if tm.OpLatency(&aap) != tm.AAP {
		t.Error("AAP latency mismatch")
	}
	if tm.OpLatency(&ap) != tm.AP {
		t.Error("AP latency mismatch")
	}
	if tm.OpLatency(&wr) != tm.RowXferNs+tm.XferOverheadNs {
		t.Error("WRITE latency mismatch")
	}
	if tm.BusLatency(&ap) != 0 {
		t.Error("compute op should not use the bus")
	}
	if tm.BusLatency(&wr) != tm.RowXferNs {
		t.Error("transfer op must occupy the bus")
	}
}

// Two banks computing in parallel must take about as long as one bank, not
// twice as long.
func TestEngineBankLevelParallelism(t *testing.T) {
	g := DefaultGeometry()
	tm := TimingFor(isa.Ambit, g)
	mkStream := func(banks int) []Placed {
		var s []Placed
		for i := 0; i < 100; i++ {
			for bk := 0; bk < banks; bk++ {
				s = append(s, Placed{Bank: bk, Subarray: 0, Op: isa.NewAP(isa.T0, isa.T1, isa.T2)})
			}
		}
		return s
	}
	e1 := NewEngine(g, tm, false)
	t1, _ := e1.RunCtx(nil, mkStream(1), 0)
	e2 := NewEngine(g, tm, false)
	t2, _ := e2.RunCtx(nil, mkStream(2), 0)
	if t2 > t1*1.01 {
		t.Errorf("2-bank compute (%.0f ns) slower than 1-bank (%.0f ns): BLP broken", t2, t1)
	}
}

// Transfers serialize on the shared bus even across banks.
func TestEngineBusSerialization(t *testing.T) {
	g := DefaultGeometry()
	tm := TimingFor(isa.Ambit, g)
	var s []Placed
	const n = 50
	for i := 0; i < n; i++ {
		s = append(s, Placed{Bank: i % 8, Subarray: 0, Op: isa.NewWrite(isa.Row(0), i)})
	}
	e := NewEngine(g, tm, false)
	mk, _ := e.RunCtx(nil, s, 0)
	lower := float64(n) * tm.RowXferNs
	if mk < lower {
		t.Errorf("makespan %.0f ns below bus lower bound %.0f ns", mk, lower)
	}
}

// Overlap: transfers to bank 1 while bank 0 computes should beat the serial
// sum. This is the effect VIRCOE exploits.
func TestEngineTransferComputeOverlap(t *testing.T) {
	g := DefaultGeometry()
	tm := TimingFor(isa.Ambit, g)
	const n = 40
	// Serial: all writes then all computes, same bank.
	var serial []Placed
	for i := 0; i < n; i++ {
		serial = append(serial, Placed{Bank: 0, Subarray: 0, Op: isa.NewWrite(isa.Row(i), i)})
	}
	for i := 0; i < n; i++ {
		serial = append(serial, Placed{Bank: 0, Subarray: 0, Op: isa.NewAP(isa.T0, isa.T1, isa.T2)})
	}
	eS := NewEngine(g, tm, false)
	tS, _ := eS.RunCtx(nil, serial, 0)

	// Interleaved across two banks: bank 0 computes while bank 1 receives.
	var inter []Placed
	for i := 0; i < n; i++ {
		inter = append(inter, Placed{Bank: 1, Subarray: 0, Op: isa.NewWrite(isa.Row(i), i)})
		inter = append(inter, Placed{Bank: 0, Subarray: 0, Op: isa.NewAP(isa.T0, isa.T1, isa.T2)})
	}
	eI := NewEngine(g, tm, false)
	tI, _ := eI.RunCtx(nil, inter, 0)
	if tI >= tS {
		t.Errorf("interleaved (%.0f ns) not faster than serial (%.0f ns)", tI, tS)
	}
}

// Without SALP, two subarrays of one bank serialize; with SALP they overlap.
func TestEngineSALP(t *testing.T) {
	g := DefaultGeometry()
	tm := TimingFor(isa.Ambit, g)
	var s []Placed
	for i := 0; i < 60; i++ {
		s = append(s, Placed{Bank: 0, Subarray: i % 2, Op: isa.NewAP(isa.T0, isa.T1, isa.T2)})
	}
	eNo := NewEngine(g, tm, false)
	tNo, _ := eNo.RunCtx(nil, s, 0)
	eYes := NewEngine(g, tm, true)
	tYes, _ := eYes.RunCtx(nil, s, 0)
	if tYes >= tNo*0.75 {
		t.Errorf("SALP (%.0f ns) should be well below no-SALP (%.0f ns)", tYes, tNo)
	}
}

// Per-subarray program order is preserved even under SALP.
func TestEngineProgramOrder(t *testing.T) {
	g := DefaultGeometry()
	tm := TimingFor(isa.Ambit, g)
	e := NewEngine(g, tm, true)
	first := e.Issue(Placed{Bank: 0, Subarray: 0, Op: isa.NewAP(isa.T0, isa.T1, isa.T2)})
	second := e.Issue(Placed{Bank: 0, Subarray: 0, Op: isa.NewAP(isa.T0, isa.T1, isa.T2)})
	if second <= first {
		t.Errorf("program order violated: %f then %f", first, second)
	}
}

func TestEngineSSDHook(t *testing.T) {
	g := DefaultGeometry()
	tm := TimingFor(isa.Ambit, g)
	e := NewEngine(g, tm, false)
	var sawOut, sawIn bool
	e.SSDDelay = func(out bool, slot uint64, start float64) float64 {
		if out {
			sawOut = true
		} else {
			sawIn = true
		}
		return 1000
	}
	so := e.Issue(Placed{Bank: 0, Subarray: 0, Op: isa.NewSpillOut(isa.Row(0), 1)})
	si := e.Issue(Placed{Bank: 0, Subarray: 0, Op: isa.NewSpillIn(isa.Row(0), 1)})
	if !sawOut || !sawIn {
		t.Error("SSD hook not invoked for spills")
	}
	if si <= so {
		t.Error("spill-in must complete after spill-out")
	}
	st := e.Stats()
	if st.SpillOuts != 1 || st.SpillIns != 1 {
		t.Errorf("spill stats wrong: %+v", st)
	}
	if st.SSDNs != 2000 {
		t.Errorf("SSDNs = %f, want 2000", st.SSDNs)
	}
}

func TestEngineStats(t *testing.T) {
	g := DefaultGeometry()
	tm := TimingFor(isa.Ambit, g)
	e := NewEngine(g, tm, false)
	e.RunCtx(nil, []Placed{
		{Bank: 0, Subarray: 0, Op: isa.NewWrite(isa.Row(0), 0)},
		{Bank: 0, Subarray: 0, Op: isa.NewAP(isa.T0, isa.T1, isa.T2)},
	}, 0)
	st := e.Stats()
	if st.Ops != 2 || st.Transfers != 1 {
		t.Errorf("stats: %+v", st)
	}
	if st.ComputeNs != tm.AP {
		t.Errorf("ComputeNs = %f, want %f", st.ComputeNs, tm.AP)
	}
	if st.MakespanNs <= 0 {
		t.Error("zero makespan")
	}
}

// TestEngineResetAfterIssue: Reset skips clearing the per-unit slices only
// when nothing was issued since the last one, so a command issued after a
// Reset completes when it would on a fresh engine, whichever unit ran
// before.
func TestEngineResetAfterIssue(t *testing.T) {
	g := DefaultGeometry()
	tm := TimingFor(isa.Ambit, g)
	ap := isa.NewAP(isa.T0, isa.T1, isa.T2)
	want := NewEngine(g, tm, true).IssueOp(3, 5, ap.Kind, 0)
	e := NewEngine(g, tm, true)
	e.Reset() // nothing issued: a no-op
	for range 4 {
		e.IssueOp(3, 5, ap.Kind, 0)
	}
	e.Reset()
	if st := e.Stats(); st != (EngineStats{}) {
		t.Fatalf("stats after Reset: %+v", st)
	}
	if got := e.IssueOp(3, 5, ap.Kind, 0); got != want {
		t.Fatalf("first command after Reset completes at %v, on a fresh engine at %v", got, want)
	}
}

func TestChannelCount(t *testing.T) {
	g := DefaultGeometry()
	if g.Channels != 0 || g.ChannelCount() != 1 {
		t.Errorf("zero-value Channels should count as 1, got %d (field %d)", g.ChannelCount(), g.Channels)
	}
	g.Channels = 4
	if g.ChannelCount() != 4 {
		t.Errorf("ChannelCount() = %d, want 4", g.ChannelCount())
	}
	if err := g.Validate(); err != nil {
		t.Errorf("4-channel geometry rejected: %v", err)
	}
	g.Channels = -1
	if err := g.Validate(); err == nil {
		t.Error("negative channel count accepted")
	}
}

// EngineStats.Merge must account for every field: a field added to
// EngineStats without a line in Merge fails here.
func TestEngineStatsMergeCoversEveryField(t *testing.T) {
	maxFields := map[string]bool{"MakespanNs": true, "MaxUnitBusy": true}
	typ := reflect.TypeOf(EngineStats{})
	for i := 0; i < typ.NumField(); i++ {
		var one EngineStats
		f := reflect.ValueOf(&one).Elem().Field(i)
		switch f.Kind() {
		case reflect.Int:
			f.SetInt(3)
		case reflect.Float64:
			f.SetFloat(3)
		default:
			t.Fatalf("field %s has kind %v: teach Merge and this test about it", typ.Field(i).Name, f.Kind())
		}
		var sum EngineStats
		sum.Merge(one)
		sum.Merge(one)
		want := one
		if !maxFields[typ.Field(i).Name] {
			w := reflect.ValueOf(&want).Elem().Field(i)
			if w.Kind() == reflect.Int {
				w.SetInt(6)
			} else {
				w.SetFloat(6)
			}
		}
		if sum != want {
			t.Errorf("field %s: merging it twice gave %+v, want %+v", typ.Field(i).Name, sum, want)
		}
	}
}

// TestIssueOutsideGeometryPanics: the engine schedules the geometry's
// subarrays only. A command placed anywhere else panics, including (0,
// SubarraysPB), whose slot would otherwise alias bank 1's first subarray.
func TestIssueOutsideGeometryPanics(t *testing.T) {
	g := DefaultGeometry()
	g.Banks, g.SubarraysPB = 2, 4
	for _, salp := range []bool{false, true} {
		for _, at := range [][2]int{{2, 0}, {0, 4}, {-1, 0}, {0, -1}} {
			func() {
				defer func() {
					if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), "outside the geometry") {
						t.Errorf("salp %v: issue at %v: recovered %v, want the geometry panic", salp, at, r)
					}
				}()
				NewEngine(g, TimingFor(isa.Ambit, g), salp).IssueOp(at[0], at[1], isa.OpAAP, 0)
			}()
		}
	}
}

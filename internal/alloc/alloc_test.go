package alloc

import (
	"testing"

	"chopper/internal/isa"
)

func TestRowPoolBasics(t *testing.T) {
	p := NewRowPool(3)
	r1, ok := p.Alloc()
	if !ok {
		t.Fatal("alloc failed")
	}
	r2, _ := p.Alloc()
	r3, _ := p.Alloc()
	if _, ok := p.Alloc(); ok {
		t.Error("alloc beyond capacity succeeded")
	}
	if p.Live() != 3 || p.MaxUsed() != 3 {
		t.Errorf("live=%d max=%d", p.Live(), p.MaxUsed())
	}
	if r1 == r2 || r2 == r3 || r1 == r3 {
		t.Error("duplicate rows handed out")
	}
	p.Free(r2)
	if p.Live() != 2 {
		t.Errorf("live after free = %d", p.Live())
	}
	r4, ok := p.Alloc()
	if !ok || r4 != r2 {
		t.Errorf("expected %v back, got %v", r2, r4)
	}
	if !p.InUse(r1) || p.InUse(isa.Row(99)) {
		t.Error("InUse wrong")
	}
}

func TestRowPoolDoubleFreePanics(t *testing.T) {
	p := NewRowPool(2)
	r, _ := p.Alloc()
	p.Free(r)
	defer func() {
		if recover() == nil {
			t.Error("double free did not panic")
		}
	}()
	p.Free(r)
}

func TestRowPoolLowRowsFirst(t *testing.T) {
	p := NewRowPool(4)
	r, _ := p.Alloc()
	if r != isa.Row(0) {
		t.Errorf("first alloc = %v, want D0", r)
	}
}

func TestLinearScanNoSpill(t *testing.T) {
	// Three non-overlapping intervals fit in one row.
	ivs := []Interval{
		{ID: 1, Start: 0, End: 2, Rows: 1},
		{ID: 2, Start: 3, End: 5, Rows: 1},
		{ID: 3, Start: 6, End: 9, Rows: 1},
	}
	res := LinearScan(ivs, 1)
	if res.Spilled != 0 {
		t.Fatalf("spilled %d", res.Spilled)
	}
	if res.MaxRows != 1 {
		t.Errorf("max rows = %d", res.MaxRows)
	}
}

func TestLinearScanOverlapNeedsRows(t *testing.T) {
	ivs := []Interval{
		{ID: 1, Start: 0, End: 10, Rows: 1},
		{ID: 2, Start: 1, End: 9, Rows: 1},
		{ID: 3, Start: 2, End: 8, Rows: 1},
	}
	res := LinearScan(ivs, 3)
	if res.Spilled != 0 || res.MaxRows != 3 {
		t.Fatalf("spilled=%d max=%d", res.Spilled, res.MaxRows)
	}
}

func TestLinearScanSpillsFurthestEnd(t *testing.T) {
	ivs := []Interval{
		{ID: 1, Start: 0, End: 100, Rows: 1}, // longest: should be the victim
		{ID: 2, Start: 1, End: 5, Rows: 1},
		{ID: 3, Start: 2, End: 6, Rows: 1},
	}
	res := LinearScan(ivs, 2)
	if res.Spilled != 1 {
		t.Fatalf("spilled = %d, want 1", res.Spilled)
	}
	if !res.Assignments[1].Spilled {
		t.Errorf("victim was %+v, want interval 1", res.Assignments)
	}
	if res.Assignments[2].Spilled || res.Assignments[3].Spilled {
		t.Error("short intervals spilled")
	}
}

func TestLinearScanSpillsNewWhenItEndsLast(t *testing.T) {
	ivs := []Interval{
		{ID: 1, Start: 0, End: 5, Rows: 1},
		{ID: 2, Start: 0, End: 6, Rows: 1},
		{ID: 3, Start: 1, End: 100, Rows: 1}, // new interval ends last
	}
	res := LinearScan(ivs, 2)
	if !res.Assignments[3].Spilled {
		t.Errorf("expected the late-ending newcomer spilled: %+v", res.Assignments)
	}
}

func TestLinearScanMultiRow(t *testing.T) {
	// Full-size operands: 8-row values, as the SIMDRAM methodology
	// allocates them.
	ivs := []Interval{
		{ID: 1, Start: 0, End: 10, Rows: 8},
		{ID: 2, Start: 2, End: 12, Rows: 8},
		{ID: 3, Start: 11, End: 20, Rows: 8},
	}
	res := LinearScan(ivs, 16)
	if res.Spilled != 0 {
		t.Fatalf("spilled %d with capacity for two", res.Spilled)
	}
	if res.MaxRows != 16 {
		t.Errorf("max rows = %d, want 16", res.MaxRows)
	}
	res2 := LinearScan(ivs, 8)
	if res2.Spilled == 0 {
		t.Error("no spill with capacity for one 8-row value")
	}
	if res2.SpillRows%8 != 0 {
		t.Errorf("spill rows = %d, want multiple of 8", res2.SpillRows)
	}
}

func TestLinearScanExpiryReleasesRows(t *testing.T) {
	ivs := []Interval{
		{ID: 1, Start: 0, End: 1, Rows: 4},
		{ID: 2, Start: 2, End: 3, Rows: 4},
		{ID: 3, Start: 4, End: 5, Rows: 4},
	}
	res := LinearScan(ivs, 4)
	if res.Spilled != 0 {
		t.Fatalf("spilled %d; expiry broken", res.Spilled)
	}
}

func TestLinearScanDefaultRows(t *testing.T) {
	res := LinearScan([]Interval{{ID: 1, Start: 0, End: 1}}, 4)
	if res.Assignments[1].Spilled {
		t.Error("single interval spilled")
	}
	if res.MaxRows != 1 {
		t.Errorf("max rows = %d", res.MaxRows)
	}
}

// TestLinearScanDenseAssignments: Assignments is indexed by interval ID,
// an ID no interval carries reads as the zero Assignment, and each
// interval's rows are its own slice of the one backing array.
func TestLinearScanDenseAssignments(t *testing.T) {
	ivs := []Interval{
		{ID: 5, Start: 0, End: 4, Rows: 2},
		{ID: 2, Start: 1, End: 3, Rows: 3},
		{ID: 0, Start: 2, End: 6, Rows: 1},
	}
	res := LinearScan(ivs, 8)
	if len(res.Assignments) != 6 {
		t.Fatalf("%d assignments for a highest ID of 5", len(res.Assignments))
	}
	for _, id := range []int{1, 3, 4} {
		if as := res.Assignments[id]; as.Rows != nil || as.Spilled {
			t.Errorf("ID %d has no interval but reads %+v", id, as)
		}
	}
	seen := map[isa.Row]bool{}
	for _, iv := range ivs {
		as := res.Assignments[iv.ID]
		if as.ID != iv.ID || as.Spilled || len(as.Rows) != iv.Rows || cap(as.Rows) != iv.Rows {
			t.Fatalf("interval %d: %+v (cap %d)", iv.ID, as, cap(as.Rows))
		}
		for _, r := range as.Rows {
			if seen[r] {
				t.Fatalf("row %v handed to two intervals live at position 2", r)
			}
			seen[r] = true
		}
	}
}

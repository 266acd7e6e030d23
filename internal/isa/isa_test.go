package isa

import (
	"slices"
	"strings"
	"testing"
	"unsafe"
)

// TestOpSize pins the micro-op record at 24 bytes, its fields unpadded:
// the op stream is the widest thing the compiler and the simulators stride
// and most of what a kernel keeps, so a field added without thought, or a
// Row wider than 16 bits, widens every stage's memory traffic by a third.
func TestOpSize(t *testing.T) {
	if got := unsafe.Sizeof(Op{}); got != 24 {
		t.Fatalf("unsafe.Sizeof(isa.Op{}) = %d, want 24", got)
	}
	var op Op
	for _, f := range []struct {
		name     string
		got, off uintptr
	}{
		{"Kind", unsafe.Offsetof(op.Kind), 0},
		{"NDst", unsafe.Offsetof(op.NDst), 1},
		{"Src", unsafe.Offsetof(op.Src), 2},
		{"Dst", unsafe.Offsetof(op.Dst), 4},
		{"Tag", unsafe.Offsetof(op.Tag), 12},
		{"Imm", unsafe.Offsetof(op.Imm), 16},
	} {
		if f.got != f.off {
			t.Errorf("isa.Op.%s at offset %d, want %d", f.name, f.got, f.off)
		}
	}
}

func TestNewCopyIsSingleDestinationAAP(t *testing.T) {
	if got, want := NewCopy(Row(7), T1), NewAAP(Row(7), T1); got != want {
		t.Fatalf("NewCopy = %+v, NewAAP = %+v", got, want)
	}
}

func TestParseRejectsOutOfRangeOperands(t *testing.T) {
	for _, line := range []string{
		"AAP D4294967296 -> T0",
		"AAP D32768 -> T0", // past a Row's 16 bits
		"WRITE -> D3 (tag 4294967296)",
		"READ D3 (tag 2147483648)",
	} {
		if op, err := ParseOp(line); err == nil {
			t.Errorf("ParseOp(%q) = %+v, want an error", line, op)
		}
	}
}

func TestRowClassification(t *testing.T) {
	cases := []struct {
		r          Row
		d, c, b    bool
		complement Row
	}{
		{Row(0), true, false, false, RowNone},
		{Row(1005), true, false, false, RowNone},
		{C0, false, true, false, RowNone},
		{C1, false, true, false, RowNone},
		{T0, false, false, true, RowNone},
		{T3, false, false, true, RowNone},
		{DCC0, false, false, true, DCC0N},
		{DCC0N, false, false, true, DCC0},
		{DCC1, false, false, true, DCC1N},
		{DCC1N, false, false, true, DCC1},
	}
	for _, tc := range cases {
		if got := tc.r.IsDGroup(); got != tc.d {
			t.Errorf("%s.IsDGroup() = %v, want %v", tc.r, got, tc.d)
		}
		if got := tc.r.IsCGroup(); got != tc.c {
			t.Errorf("%s.IsCGroup() = %v, want %v", tc.r, got, tc.c)
		}
		if got := tc.r.IsBGroup(); got != tc.b {
			t.Errorf("%s.IsBGroup() = %v, want %v", tc.r, got, tc.b)
		}
		if got := tc.r.Complement(); got != tc.complement {
			t.Errorf("%s.Complement() = %v, want %v", tc.r, got, tc.complement)
		}
	}
}

func TestRowStrings(t *testing.T) {
	want := map[Row]string{
		Row(7): "D7", C0: "C0", C1: "C1", T0: "T0", T1: "T1", T2: "T2", T3: "T3",
		DCC0: "DCC0", DCC0N: "~DCC0", DCC1: "DCC1", DCC1N: "~DCC1", RowNone: "-",
	}
	for r, s := range want {
		if got := r.String(); got != s {
			t.Errorf("Row(%d).String() = %q, want %q", int(r), got, s)
		}
	}
}

func TestBRowsAllBGroup(t *testing.T) {
	for _, r := range []Row{T0, T1, T2, T3, DCC0, DCC0N, DCC1, DCC1N} {
		if !r.IsBGroup() || r.IsDGroup() || r.IsCGroup() {
			t.Errorf("B-group row %s misclassified", r)
		}
	}
}

func TestOpConstructorsAndStrings(t *testing.T) {
	aap := NewAAP(Row(3), T0, T1)
	if aap.Kind != OpAAP || aap.NDst != 2 || aap.Src != Row(3) {
		t.Errorf("bad AAP: %+v", aap)
	}
	if !strings.Contains(aap.String(), "AAP D3 -> T0 T1") {
		t.Errorf("AAP string: %q", aap.String())
	}
	ap := NewAP(T0, T1, T2)
	if ap.Kind != OpAP || ap.Dst[2] != T2 {
		t.Errorf("bad AP: %+v", ap)
	}
	w := NewWrite(Row(5), 42)
	if w.Kind != OpWrite || w.Tag != 42 || !w.IsTransfer() {
		t.Errorf("bad WRITE: %+v", w)
	}
	r := NewRead(Row(5), 7)
	if r.Kind != OpRead || !r.IsTransfer() {
		t.Errorf("bad READ: %+v", r)
	}
	if ap.IsTransfer() {
		t.Errorf("AP misclassified")
	}
	so := NewSpillOut(Row(1), 9)
	si := NewSpillIn(Row(2), 9)
	if !so.IsTransfer() || !si.IsTransfer() {
		t.Errorf("spills must be transfers")
	}
}

func TestNewAAPPanicsOnBadArity(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewAAP with 0 destinations did not panic")
		}
	}()
	NewAAP(Row(0))
}

func TestProgramValidate(t *testing.T) {
	good := &Program{Ops: []Op{
		NewWrite(Row(0), 0),
		NewAAP(Row(0), T0, T1),
		NewAAP(C0, T2),
		NewAP(T0, T1, T2),
		NewAAP(T0, Row(1)),
		NewRead(Row(1), 0),
	}}
	if err := good.Validate(10); err != nil {
		t.Errorf("valid program rejected: %v", err)
	}

	bad := &Program{Ops: []Op{NewAAP(Row(50), T0)}}
	if err := bad.Validate(10); err == nil {
		t.Error("out-of-range D row not caught")
	}

	// Every id below the special rows names no row, wherever it appears.
	for _, op := range []Op{NewAAP(Row(0), Row(-20)), NewAAP(Row(-11), T0), NewWrite(Row(-20), 0), NewRead(Row(-20), 0), NewSpillIn(Row(-11), 0)} {
		err := (&Program{Ops: []Op{op}}).Validate(10)
		if err == nil || !strings.Contains(err.Error(), "is not a row") {
			t.Errorf("%v: error %v, want it named as no row", op, err)
		}
	}
	if err := (&Program{Ops: []Op{NewWrite(RowNone, 0)}}).Validate(10); err == nil || !strings.Contains(err.Error(), "missing destination row") {
		t.Errorf("missing row: error %v", err)
	}

	badTRA := &Program{Ops: []Op{NewAP(T0, T1, T2)}}
	badTRA.Ops[0].Dst[2] = Row(3)
	if err := badTRA.Validate(10); err == nil {
		t.Error("TRA outside B-group not caught")
	}

	multiD := &Program{Ops: []Op{NewAAP(Row(0), Row(1), Row(2))}}
	if err := multiD.Validate(10); err == nil {
		t.Error("multi-destination AAP outside B-group not caught")
	}

	badSpill := &Program{Ops: []Op{NewSpillOut(Row(0), 3)}, SpillSlots: 2}
	if err := badSpill.Validate(10); err == nil {
		t.Error("out-of-range spill slot not caught")
	}
}

// TestRolesMatchValidate holds Roles and Validate to one table of which
// row fields (0 Src, 1..3 Dst[0..2]) each op kind senses and stores. For
// every kind and every field it puts a row that is never valid there —
// RowNone, a D row past dRows, an id below DCC1N — and Validate must
// reject the op exactly when the table names the field. Stores into C0 or
// C1 are rejected at every AAP, WRITE and SPILL_IN destination, copies
// out of them are not, and an AP takes B-group rows only. A SPILL_IN into
// C0 would make later copies of the constant row read spilled data.
func TestRolesMatchValidate(t *testing.T) {
	const dRows = 8
	cases := []struct {
		op            Op
		reads, writes []int
	}{
		{NewCopy(Row(0), Row(1)), []int{0}, []int{1}},
		{NewAAP(Row(0), T0, T1), []int{0}, []int{1, 2}},
		{NewAAP(Row(0), T0, T1, T2), []int{0}, []int{1, 2, 3}},
		{NewAP(T0, T1, T2), []int{1, 2, 3}, []int{1, 2, 3}},
		{NewWrite(Row(0), 0), nil, []int{1}},
		{NewRead(Row(0), 0), []int{0}, nil},
		{NewSpillOut(Row(0), 0), []int{0}, nil},
		{NewSpillIn(Row(0), 0), nil, []int{1}},
	}
	validate := func(op Op) error { return (&Program{Ops: []Op{op}, SpillSlots: 1}).Validate(dRows) }
	fields := [4]int{0, 1, 2, 3}
	kinds := make(map[OpKind]bool)
	for _, c := range cases {
		kinds[c.op.Kind] = true
		reads, writes := Roles(&fields, c.op.Kind, c.op.NDst)
		if !slices.Equal(reads, c.reads) || !slices.Equal(writes, c.writes) {
			t.Errorf("%v: Roles names reads %v writes %v, want %v and %v", c.op, reads, writes, c.reads, c.writes)
		}
		if err := validate(c.op); err != nil {
			t.Fatalf("%v: valid op rejected: %v", c.op, err)
		}
		for j := range fields {
			named := slices.Contains(c.reads, j) || slices.Contains(c.writes, j)
			for _, bad := range []Row{RowNone, Row(dRows), DCC1N - 1} {
				op := c.op
				switch j {
				case 0:
					op.Src = bad
				default:
					op.Dst[j-1] = bad
				}
				if err := validate(op); (err != nil) != named {
					t.Errorf("%v with %v in field %d: error %v, want rejected %v", c.op, bad, j, err, named)
				}
			}
		}
		for _, j := range c.writes {
			for _, r := range []Row{C0, C1, Row(0)} {
				op := c.op
				op.Dst[j-1] = r
				err := validate(op)
				switch k := op.Kind; {
				case k == OpAP || k == OpAAP && op.NDst > 1:
					if err == nil || !strings.Contains(err.Error(), "B-group") {
						t.Errorf("%v: error %v, want a B-group rejection", op, err)
					}
				case r.IsCGroup():
					if want := "into constant row " + r.String(); err == nil || !strings.Contains(err.Error(), want) {
						t.Errorf("%v: error %v, want %q", op, err, want)
					}
				case err != nil:
					t.Errorf("%v: valid op rejected: %v", op, err)
				}
			}
		}
	}
	if len(kinds) != NumOpKinds {
		t.Errorf("table covers %d of %d op kinds", len(kinds), NumOpKinds)
	}
	for _, op := range []Op{NewCopy(C0, Row(1)), NewCopy(C1, T0), NewAAP(C1, T0, T1, T2)} {
		if err := validate(op); err != nil {
			t.Errorf("%v: copy out of a constant row rejected: %v", op, err)
		}
	}
	spilled := &Program{Ops: []Op{NewWrite(Row(0), 0), NewSpillOut(Row(0), 0), NewSpillIn(C0, 0), NewCopy(C0, Row(1)), NewRead(Row(1), 0)}, SpillSlots: 1}
	if err := spilled.Validate(dRows); err == nil || !strings.Contains(err.Error(), "op 2") || !strings.Contains(err.Error(), "SPILL_IN into constant row C0") {
		t.Errorf("SPILL_IN into C0: error %v, want op 2 rejected", err)
	}
	if reads, writes := Roles(&fields, OpKind(NumOpKinds), 1); reads != nil || writes != nil {
		t.Errorf("unknown kind: Roles names %v and %v", reads, writes)
	}
	if err := validate(Op{Kind: OpKind(NumOpKinds)}); err == nil || !strings.Contains(err.Error(), "unknown kind") {
		t.Errorf("unknown kind: error %v", err)
	}
}

func TestProgramCounts(t *testing.T) {
	p := &Program{Ops: []Op{
		NewWrite(Row(0), 0), NewWrite(Row(1), 1),
		NewAAP(Row(0), T0), NewAP(T0, T1, T2),
		NewRead(Row(2), 0),
	}}
	c := p.Counts()
	if c[OpWrite] != 2 || c[OpAAP] != 1 || c[OpAP] != 1 || c[OpRead] != 1 {
		t.Errorf("bad counts: %v", c)
	}
}

func TestArchProperties(t *testing.T) {
	if len(AllArchs) != 3 {
		t.Errorf("AllArchs = %v", AllArchs)
	}
	if Ambit.String() != "Ambit" || ELP2IM.String() != "ELP2IM" || SIMDRAM.String() != "SIMDRAM" {
		t.Error("arch names wrong")
	}
}

func TestParseArch(t *testing.T) {
	for s, want := range map[string]Arch{"ambit": Ambit, "ELP2IM": ELP2IM, "SimDram": SIMDRAM} {
		if got, err := ParseArch(s); err != nil || got != want {
			t.Errorf("ParseArch(%q) = %v, %v", s, got, err)
		}
	}
	for _, a := range AllArchs {
		if got, err := ParseArch(a.String()); err != nil || got != a {
			t.Errorf("ParseArch(%q) = %v, %v: not String's inverse", a, got, err)
		}
	}
	_, err := ParseArch("pentium")
	if err == nil || !strings.Contains(err.Error(), "ambit, elp2im, simdram") {
		t.Errorf("bogus arch: error %v does not list the valid names", err)
	}
}

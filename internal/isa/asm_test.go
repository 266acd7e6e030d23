package isa

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestParseRowRoundTrip(t *testing.T) {
	rows := []Row{Row(0), Row(7), Row(1005), C0, C1, T0, T1, T2, T3, DCC0, DCC0N, DCC1, DCC1N, RowNone}
	for _, r := range rows {
		got, err := ParseRow(r.String())
		if err != nil || got != r {
			t.Errorf("ParseRow(%q) = %v, %v", r.String(), got, err)
		}
	}
	for _, bad := range []string{"", "D", "D-1", "Q3", "T9", "dcc0"} {
		if _, err := ParseRow(bad); err == nil {
			t.Errorf("ParseRow(%q) accepted", bad)
		}
	}
}

func TestParseOpRoundTrip(t *testing.T) {
	ops := []Op{
		NewAAP(Row(3), T0),
		NewAAP(C1, T0, T1, T2),
		NewAAP(DCC0N, Row(12)),
		NewAP(T0, T1, T2),
		NewAP(DCC0N, T1, T2),
		NewWrite(Row(0), 42),
		NewWrite(T1, 0),
		NewRead(Row(99), 7),
		NewSpillOut(Row(5), 11),
		NewSpillIn(Row(6), 11),
	}
	for _, op := range ops {
		got, err := ParseOp(op.String())
		if err != nil {
			t.Fatalf("ParseOp(%q): %v", op.String(), err)
		}
		if got.String() != op.String() {
			t.Errorf("round trip: %q -> %q", op.String(), got.String())
		}
	}
}

func TestParseOpWithPositionPrefix(t *testing.T) {
	op, err := ParseOp("  42: AP T0,T1,T2")
	if err != nil || op.Kind != OpAP {
		t.Fatalf("position prefix: %v %v", op, err)
	}
}

func TestParseOpRejectsGarbage(t *testing.T) {
	for _, bad := range []string{
		"", "NOP", "AAP D0", "AAP D0 -> ", "AAP -> T0",
		"AP T0,T1", "AP T0,T1,T2,T3", "WRITE D0", "READ (tag 3)",
		"AAP D0 -> T0 T1 T2 T3", "ROWINIT -> D1 (0xdead)",
	} {
		if _, err := ParseOp(bad); err == nil {
			t.Errorf("ParseOp(%q) accepted", bad)
		}
	}
}

func TestParseProgram(t *testing.T) {
	text := `
// a tiny AND kernel
WRITE -> D0 (tag 0)
WRITE -> D1 (tag 1)
AAP D0 -> T0
AAP D1 -> T1
AAP C0 -> T2
AP T0,T1,T2
AAP T0 -> D2
READ D2 (tag 0)
`
	p, err := ParseProgram(text)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Ops) != 8 {
		t.Fatalf("%d ops", len(p.Ops))
	}
	if p.DRowsUsed != 3 {
		t.Errorf("DRowsUsed = %d, want 3", p.DRowsUsed)
	}
	if err := p.Validate(10); err != nil {
		t.Error(err)
	}
}

func TestParseProgramReportsLine(t *testing.T) {
	_, err := ParseProgram("AP T0,T1,T2\nBOGUS\n")
	if err == nil {
		t.Fatal("garbage accepted")
	}
	if want := "line 2"; !contains(err.Error(), want) {
		t.Errorf("error %q lacks %q", err, want)
	}
}

func contains(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}

// Property: Format then ParseProgram reproduces any valid program.
func TestQuickFormatParseRoundTrip(t *testing.T) {
	cfg := &quick.Config{MaxCount: 50, Rand: rand.New(rand.NewSource(3))}
	bRows := []Row{T0, T1, T2, T3, DCC0, DCC0N, DCC1, DCC1N}
	prop := func(seed int64, nOps uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		p := &Program{}
		anyRow := func() Row {
			if rng.Intn(2) == 0 {
				return Row(rng.Intn(100))
			}
			return bRows[rng.Intn(len(bRows))]
		}
		for i := 0; i < int(nOps)%40+1; i++ {
			switch rng.Intn(6) {
			case 0:
				nd := rng.Intn(3) + 1
				dsts := make([]Row, nd)
				for j := range dsts {
					dsts[j] = bRows[rng.Intn(len(bRows))]
				}
				p.Append(NewAAP(anyRow(), dsts...))
			case 1:
				p.Append(NewAP(bRows[rng.Intn(8)], bRows[rng.Intn(8)], bRows[rng.Intn(8)]))
			case 2:
				p.Append(NewWrite(anyRow(), rng.Intn(1000)))
			case 3:
				p.Append(NewRead(anyRow(), rng.Intn(1000)))
			case 4:
				p.Append(NewSpillOut(anyRow(), uint64(rng.Intn(50))))
			case 5:
				p.Append(NewSpillIn(anyRow(), uint64(rng.Intn(50))))
			}
		}
		text := p.Format()
		q, err := ParseProgram(text)
		if err != nil {
			return false
		}
		return q.Format() == text
	}
	if err := quick.Check(prop, cfg); err != nil {
		t.Fatal(err)
	}
}

// Round trip a real compiled kernel's assembly (integration-ish, but kept
// here since it exercises only isa surfaces given a canned program).
func TestFormatParseRealKernelShape(t *testing.T) {
	p := &Program{}
	p.Append(
		NewWrite(T0, 0), NewWrite(T1, 1), NewAAP(C0, T2),
		NewAP(T0, T1, T2), NewAAP(T0, Row(0)), NewRead(Row(0), 0),
	)
	q, err := ParseProgram(p.Format())
	if err != nil {
		t.Fatal(err)
	}
	if q.Format() != p.Format() {
		t.Error("round trip changed program")
	}
}

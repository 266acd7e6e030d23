package isa

import "testing"

// splitProgram is a small valid program laid out the way the code generator
// emits one: clusters of ops per gate, an epoch mark after each, spill
// slots allocated in order (each first written by a SPILL_OUT).
func splitProgram() (p *Program, ends []int) {
	ap := NewAP(T0, T1, T2)
	clusters := [][]Op{
		{NewCopy(C0, T2), NewCopy(C1, T1)},
		{NewWrite(Row(0), 0), NewWrite(Row(1), 1)},
		{NewCopy(Row(0), T0), NewCopy(Row(1), T1), NewCopy(C0, T2), ap, NewCopy(T0, Row(2))},
		{NewSpillOut(Row(2), 0)},
		{NewAAP(Row(1), DCC0, T1), NewCopy(C1, T2), ap, NewCopy(T0, Row(3))},
		{NewSpillOut(Row(3), 1), NewSpillIn(Row(4), 0)},
		{NewAAP(Row(4), T0, T1, T2), ap, NewCopy(T1, Row(5))},
		{NewSpillIn(Row(6), 1), NewRead(Row(6), 0)},
		{NewRead(Row(5), 1)},
	}
	p = &Program{SpillSlots: 2}
	for _, c := range clusters {
		p.Ops = append(p.Ops, c...)
		ends = append(ends, len(p.Ops))
	}
	p.EpochMarks = ends
	return p, ends
}

// validateSplit checks p cluster by cluster, as codegen.Generate does while
// emitting: ValidateOps over each range with the slot bound slots(end),
// then ValidateMarks.
func validateSplit(p *Program, ends []int, dRows int, slots func(end int) int) error {
	from := 0
	for _, to := range ends {
		if err := p.ValidateOps(from, to, dRows, slots(to)); err != nil {
			return err
		}
		from = to
	}
	return p.ValidateMarks()
}

// TestValidateSplitMatchesWhole seeds one bad op at every position of a
// program and holds the per-cluster check to Validate's exact error; a
// second bad op later in the stream must not change which one is reported.
// With the growing slot bound a producer knows mid-stream, the clean
// program passes and every seeded op still fails.
func TestValidateSplitMatchesWhole(t *testing.T) {
	const dRows = 8
	clean, ends := splitProgram()
	final := func(int) int { return clean.SpillSlots }
	// growing is one past the highest slot a SPILL_OUT wrote before end:
	// the bound the code generator has after emitting that far.
	growing := func(end int) int {
		n := 0
		for _, op := range clean.Ops[:end] {
			if op.Kind == OpSpillOut {
				n = max(n, int(op.Imm)+1)
			}
		}
		return n
	}
	if err := clean.Validate(dRows); err != nil {
		t.Fatalf("clean program rejected: %v", err)
	}
	if err := validateSplit(clean, ends, dRows, growing); err != nil {
		t.Fatalf("clean program rejected with the growing slot bound: %v", err)
	}

	offB := NewAP(T0, T1, T2)
	offB.Dst[1] = Row(2)
	bad := map[string]Op{
		"row beyond dRows":      NewCopy(Row(dRows), T0),
		"AP outside B-group":    offB,
		"multi-dst AAP outside": NewAAP(Row(0), T0, Row(3)),
		"spill slot at bound":   NewSpillIn(Row(1), uint64(clean.SpillSlots)),
		"spill slot over bound": NewSpillOut(Row(1), uint64(clean.SpillSlots+5)),
		"unknown kind":          {Kind: OpKind(NumOpKinds), Src: RowNone},
	}
	for name, op := range bad {
		for pos := range clean.Ops {
			for _, second := range []bool{false, true} {
				p := &Program{Ops: append([]Op(nil), clean.Ops...), SpillSlots: clean.SpillSlots, EpochMarks: ends}
				p.Ops[pos] = op
				if second {
					if pos == len(p.Ops)-1 {
						continue
					}
					p.Ops[len(p.Ops)-1] = Op{Kind: OpKind(NumOpKinds + 1)}
				}
				want := p.Validate(dRows)
				if want == nil {
					t.Fatalf("%s at op %d: Validate accepted it", name, pos)
				}
				got := validateSplit(p, ends, dRows, final)
				if got == nil || got.Error() != want.Error() {
					t.Errorf("%s at op %d (second bad op %v): split check says %v, Validate %v", name, pos, second, got, want)
				}
				if validateSplit(p, ends, dRows, growing) == nil {
					t.Errorf("%s at op %d: passes the split check with the growing slot bound", name, pos)
				}
			}
		}
	}

	// A bad epoch mark is ValidateMarks' to report, after every op passed.
	p := &Program{Ops: clean.Ops, SpillSlots: clean.SpillSlots, EpochMarks: []int{3, 3}}
	want, got := p.Validate(dRows), validateSplit(p, ends, dRows, final)
	if want == nil || got == nil || got.Error() != want.Error() {
		t.Errorf("bad epoch mark: split check says %v, Validate %v", got, want)
	}
}

package prove

import (
	"strings"
	"testing"

	"chopper/internal/codegen"
	"chopper/internal/isa"
	"chopper/internal/logic"
)

// andNet is z = a & b.
func andNet() *logic.Net {
	b := new(logic.Scratch).Builder(logic.BuilderOptions{Fold: true, CSE: true})
	b.Output("z", b.And(b.Input("a"), b.Input("b")))
	return b.Net()
}

// handCode wraps hand-written ops in z = f(a, b)'s host interface.
func handCode(ops ...isa.Op) *codegen.Result {
	return &codegen.Result{
		Prog:      &isa.Program{Ops: ops, DRowsUsed: 4, SpillSlots: 2},
		InputTag:  map[string]int{"a": 0, "b": 1},
		OutputTag: map[string]int{"z": 0},
	}
}

// load is the operand setup codegen emits for a TRA over a and b.
var load = []isa.Op{
	isa.NewWrite(0, 0), isa.NewWrite(1, 1),
	isa.NewCopy(0, isa.T0), isa.NewCopy(1, isa.T1),
}

func prog(parts ...[]isa.Op) []isa.Op {
	var ops []isa.Op
	for _, p := range parts {
		ops = append(ops, p...)
	}
	return ops
}

// TestProveVerdicts checks Check on hand-written programs for z = a & b:
// what it proves, what it refutes at which op, what it refutes with a
// counterexample, and what it leaves unproven.
func TestProveVerdicts(t *testing.T) {
	and := []isa.Op{isa.NewCopy(isa.C0, isa.T2), isa.NewAP(isa.T0, isa.T1, isa.T2)}
	or := []isa.Op{isa.NewCopy(isa.C1, isa.T2), isa.NewAP(isa.T0, isa.T1, isa.T2)}
	read := []isa.Op{isa.NewRead(isa.T0, 0)}
	cases := []struct {
		name string
		ops  []isa.Op
		want Verdict
		op   int    // the op a stop names, -1 for none
		text string // in the result's text
	}{
		{"and", prog(load, and, read), Proved, -1, "proved"},
		// ¬(¬a | ¬b) through both DCC pairs: a & b in another form, which
		// the builder does not normalize and no vector tells apart.
		{"de morgan", prog(
			[]isa.Op{isa.NewWrite(0, 0), isa.NewWrite(1, 1),
				isa.NewCopy(0, isa.DCC0), isa.NewCopy(isa.DCC0N, isa.T0),
				isa.NewCopy(1, isa.DCC1), isa.NewCopy(isa.DCC1N, isa.T1)},
			or, []isa.Op{isa.NewCopy(isa.T0, isa.DCC0), isa.NewRead(isa.DCC0N, 0)}), Unproven, -1, "output z differs from the net in form"},
		{"spill round trip", prog(load, []isa.Op{
			isa.NewSpillOut(isa.T1, 1), isa.NewWrite(isa.T1, 0), isa.NewSpillIn(isa.T1, 1)}, and, read), Proved, -1, "proved"},
		{"or for and", prog(load, or, read), Refuted, -1, "output z differs from the net on"},
		{"undefined row", prog(load[:3], []isa.Op{isa.NewCopy(3, isa.T1)}, and, read), Refuted, 3, "read of undefined row D3"},
		{"unwritten slot", prog(load, []isa.Op{isa.NewSpillIn(isa.T1, 1)}, and, read), Refuted, 4, "SPILL_IN of unwritten slot 1"},
		{"unknown write tag", prog([]isa.Op{isa.NewWrite(0, 7)}), Refuted, 0, "WRITE of unknown tag 7"},
		{"unknown read tag", prog(load, and, []isa.Op{isa.NewRead(isa.T0, 5)}), Refuted, 6, "READ of unknown tag 5"},
		{"never read", prog(load, and), Refuted, -1, "output z is never READ"},
		{"write into C1", prog([]isa.Op{isa.NewWrite(isa.C1, 0)}), Refuted, 0, "WRITE into constant row C1"},
		{"rowinit C0 to ones", prog([]isa.Op{isa.NewRowInit(isa.C0, ^uint64(0))}), Refuted, 0, "wrong pattern"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			code := handCode(tc.ops...)
			r := Check(code, andNet())
			if r.Verdict != tc.want || r.Op != tc.op || !strings.Contains(r.String(), tc.text) {
				t.Fatalf("%v (op %d), want %v at op %d with %q", r, r.Op, tc.want, tc.op, tc.text)
			}
			if r.Inputs != nil {
				// The counterexample is real on sim.
				o := &outcome{}
				reads, ok := o.crossCheck(tc.name, code, 8, r.Inputs, -1)
				if !ok {
					t.Fatal(o.errs)
				}
				want := r.Inputs["a"] & r.Inputs["b"]
				if d := reads[0] ^ want; d != r.Lanes || d == 0 {
					t.Fatalf("sim differs from a & b on lanes %#x, the prover said %#x", d, r.Lanes)
				}
			}
		})
	}
}

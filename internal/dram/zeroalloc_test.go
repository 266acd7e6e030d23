package dram

import (
	"testing"

	"chopper/internal/isa"
)

// TestIssueZeroAlloc requires the dense-slice scheduler to be allocation-
// free for in-geometry placements across every op kind, including the
// SSD-delayed spill kinds.
func TestIssueZeroAlloc(t *testing.T) {
	g := DefaultGeometry()
	eng := NewEngine(g, TimingFor(isa.Ambit, g), true)
	eng.SSDDelay = func(out bool, slot uint64, startNs float64) float64 { return 100 }
	ops := []isa.Op{
		isa.NewAAP(isa.Row(0), isa.Row(1)),
		isa.NewAP(isa.T0, isa.T1, isa.T2),
		isa.NewWrite(isa.Row(2), 1),
		isa.NewRead(isa.Row(2), 2),
		isa.NewSpillOut(isa.Row(3), 7),
		isa.NewSpillIn(isa.Row(3), 7),
		isa.NewCopy(isa.C0, isa.Row(4)),
	}
	run := func() {
		for b := 0; b < 4; b++ {
			for s := 0; s < 4; s++ {
				for i := range ops {
					eng.IssueOp(b, s, ops[i].Kind, ops[i].Imm)
				}
			}
		}
	}
	run() // warm: first write to each unit marks the seen slice
	if n := testing.AllocsPerRun(100, run); n != 0 {
		t.Fatalf("steady-state IssueOp allocates %v allocs/run, want 0", n)
	}
}

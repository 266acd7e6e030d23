package sim

// The planned body — a whole-stream run that trusts Decode's whole-stream
// proof — held against the seed reference (seedref_test.go) run
// op by op until its first error, the way a whole-stream loop stops. Every
// whole-stream entry point is checked: RunFunctionalCtx, the plain
// RunRecoveredCtx (whose partial makespan is also checked), and the parity
// and vote recovered runs, whose epoch replays restore state and run the
// planned body again.

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"chopper/internal/dram"
	"chopper/internal/guard"
	"chopper/internal/isa"
)

// planGeom is a one-subarray device with dRows data rows.
func planGeom(dRows int) dram.Geometry {
	return dram.Geometry{Banks: 1, SubarraysPB: 1, RowsPerSub: dRows, RowBytes: 8}
}

// outcome is what a whole-stream run leaves behind: its error ("" if it ran
// to the end), the READ payloads and fault-hook calls it made, and the
// final contents of every row the program names.
type outcome struct {
	err          string
	reads, trace []string
	rows         map[isa.Row][]uint64
}

func (o *outcome) capture(prog *isa.Program, row func(isa.Row) []uint64) {
	o.rows = make(map[isa.Row][]uint64)
	for _, r := range interestingRows(prog) {
		o.rows[r] = row(r)
	}
}

// refWhole runs prog on the seed reference until its first error and
// returns the outcome and how many ops completed.
func refWhole(prog *isa.Program, dRows, lanes int, hook bool) (outcome, int) {
	s := newSeedSub(dRows, lanes)
	h := &traceHook{}
	if hook {
		s.hook = h
	}
	var o outcome
	io := testIO(s.words, 42, &o.reads)
	spill := &seedSpill{slots: make(map[uint64][]uint64)}
	stop := len(prog.Ops)
	for i := range prog.Ops {
		if err := s.exec(&prog.Ops[i], io, spill); err != nil {
			o.err, stop = fmt.Sprintf("op %d at bank 0 sub 0: %v", i, err), i
			break
		}
	}
	o.trace = h.events
	o.capture(prog, s.row)
	return o, stop
}

// wholeRun is one whole-stream entry point. ns is the makespan it reports.
type wholeRun struct {
	name  string
	hook  bool // attach a traceHook (the vote detector's replays would re-observe it)
	epoch bool // reads are released per epoch: an error drops its epoch's reads
	run   func(m *Machine, d *Decoded, io *HostIO) (ns float64, err error)
}

var wholeRuns = []wholeRun{
	{"functional", true, false, func(m *Machine, d *Decoded, io *HostIO) (float64, error) {
		return 0, m.RunFunctionalCtx(nil, d, io, guard.Budget{})
	}},
	{"plain", true, false, func(m *Machine, d *Decoded, io *HostIO) (float64, error) {
		ns, _, err := m.RunRecoveredCtx(nil, d, 0, 0, io, guard.Budget{}, RecoveryPolicy{})
		return ns, err
	}},
	{"parity", true, true, func(m *Machine, d *Decoded, io *HostIO) (float64, error) {
		_, _, err := m.RunRecoveredCtx(nil, d, 0, 0, io, guard.Budget{}, RecoveryPolicy{Detector: DetectParity, EpochUops: 8})
		return 0, err
	}},
	{"vote", false, true, func(m *Machine, d *Decoded, io *HostIO) (float64, error) {
		_, _, err := m.RunRecoveredCtx(nil, d, 0, 0, io, guard.Budget{}, RecoveryPolicy{Detector: DetectVote, EpochUops: 8})
		return 0, err
	}},
}

// runWhole runs d on a fresh machine through w.
func runWhole(w wholeRun, prog *isa.Program, d *Decoded, dRows, lanes int) (outcome, float64) {
	h := &traceHook{}
	cfg := MachineConfig{Geom: planGeom(dRows), Arch: isa.Ambit, Lanes: lanes}
	if w.hook {
		cfg.Fault = h
	}
	m := NewMachine(cfg)
	var o outcome
	io := testIO(m.sub.words, 42, &o.reads)
	ns, err := w.run(m, d, io)
	if err != nil {
		o.err = err.Error()
	}
	o.trace = h.events
	o.capture(prog, m.sub.Row)
	return o, ns
}

// mismatch describes the first way got differs from want ("" if none). A
// run whose reads are released per epoch may, after an error, have
// delivered only a prefix of the reference's.
func mismatch(got, want outcome, epoch bool) string {
	if got.err != want.err {
		return fmt.Sprintf("error %q, reference %q", got.err, want.err)
	}
	reads := want.reads
	if epoch && want.err != "" && len(got.reads) <= len(reads) {
		reads = reads[:len(got.reads)]
	}
	if !slices.Equal(got.reads, reads) {
		return fmt.Sprintf("READ payloads %q, reference %q", got.reads, want.reads)
	}
	if !slices.Equal(got.trace, want.trace) {
		return fmt.Sprintf("fault-hook calls diverged (%d vs %d)\n got %q\nwant %q", len(got.trace), len(want.trace), got.trace, want.trace)
	}
	for r, w := range want.rows {
		if !eqWords(got.rows[r], w) {
			return fmt.Sprintf("row %v = %x, reference %x", r, got.rows[r], w)
		}
	}
	return ""
}

// planStreams returns seedref's random program for seed four ways: as
// generated (its rows past dRows leave it unplanned: the checked path),
// with those rows folded into range, that with every op removed that can
// only fail (an AAP or WRITE into the C-group, a WRITE of the tag with no
// data), so a run goes deep before an undefined read or an unwritten spill
// slot stops it, and that with the ops the reference fails removed too, so
// it runs to the end (planned: it reads no row before defining it). The
// middle two are planned where Decode proves them.
// (The ops removed last fail before they change anything.)
func planStreams(seed int64) (int, []*isa.Program) {
	rng := rand.New(rand.NewSource(seed))
	dRows := 8 + rng.Intn(8)
	raw := genProgram(rng, 80+rng.Intn(80), dRows)
	folded := &isa.Program{DRowsUsed: dRows, SpillSlots: raw.SpillSlots, Ops: slices.Clone(raw.Ops)}
	fold := func(r isa.Row) isa.Row {
		if int(r) >= dRows {
			return r - isa.Row(dRows)
		}
		return r
	}
	clean := &isa.Program{DRowsUsed: dRows, SpillSlots: raw.SpillSlots}
	for i := range folded.Ops {
		op := &folded.Ops[i]
		op.Src = fold(op.Src)
		for j := range op.Dst {
			op.Dst[j] = fold(op.Dst[j])
		}
		opd := op.Rows()
		_, writes := isa.Roles(&opd, op.Kind, op.NDst)
		constant := slices.ContainsFunc(writes, func(r isa.Row) bool { return isa.ConstStore(op.Kind, r) })
		if !constant && !(op.Kind == isa.OpWrite && op.Tag == 5) {
			clean.Ops = append(clean.Ops, *op)
		}
	}
	whole := &isa.Program{DRowsUsed: dRows, SpillSlots: raw.SpillSlots}
	ref, spill := newSeedSub(dRows, 64), &seedSpill{slots: make(map[uint64][]uint64)}
	io := testIO(ref.words, 42, new([]string))
	for i := range clean.Ops {
		if ref.exec(&clean.Ops[i], io, spill) == nil {
			whole.Ops = append(whole.Ops, clean.Ops[i])
		}
	}
	return dRows, []*isa.Program{raw, folded, clean, whole}
}

// TestPlannedBodyLockstep: every whole-stream run of seedref's random
// programs — planned or not, hooked or not, recovered or not, at lane
// counts either side of a word — stops at the reference's op with its
// error text, after the same READ payloads, fault-hook calls and rows.
func TestPlannedBodyLockstep(t *testing.T) {
	stops := map[string]int{}
	for seed := int64(0); seed < 24; seed++ {
		dRows, progs := planStreams(seed)
		for v, prog := range progs {
			d := Decode(prog)
			planned := d.proven && d.maxD < dRows
			if v == 0 && planned || v == len(progs)-1 && !planned {
				t.Fatalf("seed %d variant %d: planned %v", seed, v, planned)
			}
			for _, lanes := range []int{1, 64, 65, 128} {
				for _, w := range wholeRuns {
					want, stop := refWhole(prog, dRows, lanes, w.hook)
					got, ns := runWhole(w, prog, d, dRows, lanes)
					if msg := mismatch(got, want, w.epoch); msg != "" {
						t.Fatalf("seed %d variant %d lanes %d %s: %s", seed, v, lanes, w.name, msg)
					}
					if w.name == "plain" {
						// The partial makespan covers exactly the ops that ran.
						g := planGeom(dRows)
						eng := dram.NewEngine(g, dram.TimingFor(isa.Ambit, g), false)
						for i := range prog.Ops[:stop] {
							eng.Issue(dram.Placed{Op: prog.Ops[i]})
						}
						if ns != eng.Makespan() {
							t.Fatalf("seed %d variant %d lanes %d: makespan %v, the %d ops that ran take %v", seed, v, lanes, ns, stop, eng.Makespan())
						}
					}
					stops[stopKind(planned, want.err)]++
				}
			}
		}
	}
	// The streams must reach what each path has to get right. A proven
	// stream reads no row before defining it and stores into no constant
	// row, so those stops are the checked path's alone.
	for _, kind := range []string{"planned/complete", "planned/unwritten slot", "checked/uninitialized",
		"checked/constant row", "checked/beyond D-group"} {
		if stops[kind] == 0 {
			t.Errorf("no run ended %s: %v", kind, stops)
		}
	}
	for _, kind := range []string{"planned/uninitialized", "planned/constant row"} {
		if stops[kind] != 0 {
			t.Errorf("%d planned runs ended %s: %v", stops[kind], kind, stops)
		}
	}
}

func stopKind(planned bool, err string) string {
	mode := "checked"
	if planned {
		mode = "planned"
	}
	for _, k := range []string{"uninitialized", "unwritten slot", "constant row", "beyond D-group"} {
		if strings.Contains(err, k) {
			return mode + "/" + k
		}
	}
	if err == "" {
		return mode + "/complete"
	}
	return mode + "/other"
}

// TestPlannedBodyMutant seeds the bug the proof exists to prevent: it
// gives the whole-stream proof to a stream Decode could not prove because
// one of its reads is of a row no earlier op defines, and requires the
// lockstep to catch the planned run wherever the reference reaches that
// read.
func TestPlannedBodyMutant(t *testing.T) {
	caught := 0
	for seed := int64(0); seed < 24; seed++ {
		dRows, progs := planStreams(seed)
		for v, prog := range progs[1:] {
			if Decode(prog).proven {
				continue
			}
			// The op the proof fails at: the shortest prefix it fails on.
			at := 0
			for Decode(&isa.Program{Ops: prog.Ops[:at+1]}).proven {
				at++
			}
			want, stop := refWhole(prog, dRows, 64, false)
			if stop != at || !strings.Contains(want.err, "uninitialized") {
				continue // the reference stops first, or the proof fails at a store
			}
			mut := &Decoded{prog: prog, maxD: dRows - 1, proven: true}
			got, _ := runWhole(wholeRuns[0], prog, mut, dRows, 64)
			if mismatch(got, want, false) == "" {
				t.Errorf("seed %d variant %d: the unprovable read at op %d went unnoticed", seed, v+1, at)
			}
			caught++
		}
	}
	if caught < 8 {
		t.Fatalf("only %d mutants were reached; the check is close to vacuous", caught)
	}
}

// TestDecodeProvesPartners: a store into one row of a dual-contact pair
// proves a later read of its partner, whatever rows the stream touched
// before; a read of the partner alone is not proven. partner pairs the
// slots as isa.Row.Complement pairs the rows.
func TestDecodeProvesPartners(t *testing.T) {
	for r := isa.C0; r >= isa.DCC1N; r-- {
		want := -1
		if c := r.Complement(); c != isa.RowNone {
			want = slotOf(c)
		}
		if got := partner(slotOf(r)); got != want {
			t.Errorf("%v: partner slot %d, want %d", r, got, want)
		}
	}
	for _, r := range []isa.Row{isa.DCC0, isa.DCC0N, isa.DCC1, isa.DCC1N} {
		if !Decode(&isa.Program{Ops: []isa.Op{isa.NewAAP(isa.C1, r), isa.NewRead(r.Complement(), 0)}}).proven {
			t.Errorf("%v: the read of its partner is not proven", r)
		}
		if Decode(&isa.Program{Ops: []isa.Op{isa.NewRead(r.Complement(), 0)}}).proven {
			t.Errorf("%v: a read of its partner before any store is proven", r)
		}
	}
}

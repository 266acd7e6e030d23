// Package prove is a translation validator for the back end. Everything
// after logic.Legalize — OBS scheduling, reuse, renaming, row allocation,
// spills, code generation, TMR wiring — only moves values between rows, so
// each output bit of an emitted program must compute exactly its net's
// Boolean function. Check establishes that for every input at once (the
// method is translation validation: Pnueli, Siegel and Singerman, TACAS
// 1998).
//
// The program runs on a symbolic subarray whose rows hold logic.NodeIDs of
// one hash-consing builder (constant folding and structural hashing on, no
// target gate set), over the MAJ/NOT/copy domain of SIMDRAM's µPrograms.
// The ops mean what internal/sim's µop body makes them mean:
//
//	ROWINIT, C0, C1       constants
//	WRITE tag             the input literal InputTag names, or a ConstPattern constant
//	AAP src -> d...       a copy; a write to a DCC row sets its partner to the NOT
//	AP a,b,c              MAJ(a, b, c), stored to all three rows
//	SPILL_OUT, SPILL_IN   through a slot map
//	READ tag              the candidate for the output OutputTag names
//
// The net is then re-interned gate by gate into the same builder. Equal ids
// are equal functions for every input and every lane count. Where the ids
// of an output differ, both cones are simulated on random vectors (64 per
// word): a difference refutes the program with a counterexample, none
// leaves it unproven. A read of an undefined row or an unwritten spill
// slot, an unknown tag, or an output that is never READ refutes it too.
package prove

import (
	"fmt"
	"math/bits"
	"math/rand"
	"strconv"

	"chopper/internal/codegen"
	"chopper/internal/isa"
	"chopper/internal/logic"
)

// Verdict is the outcome of a check: Proved (every output computes its net
// function for all inputs), Refuted (an output differs from it on a
// counterexample, or the program cannot run) or Unproven (an output's id
// differs from its net function's, and no simulated input tells them apart).
type Verdict uint8

const (
	Proved Verdict = iota
	Refuted
	Unproven
)

var verdictNames = [...]string{"proved", "refuted", "unproven"}

func (v Verdict) String() string { return verdictNames[v] }

// simWords is how many 64-lane words of random inputs a check simulates
// before it calls differing ids unproven.
const simWords = 16

// Result reports one check. Op is the index of the op a program that
// cannot run stops at (-1 for every other result); Output names a refuted
// or unproven output. For a counterexample, Inputs holds 64 lanes per input
// literal and Lanes marks those where the program's Output differs from the
// net's.
type Result struct {
	Verdict Verdict
	Op      int
	Output  string
	Reason  string // what was found, in words
	Inputs  map[string]uint64
	Lanes   uint64
}

func (r Result) String() string {
	switch {
	case r.Verdict == Proved:
		return "proved"
	case r.Op >= 0:
		return fmt.Sprintf("%s at op %d: %s", r.Verdict, r.Op, r.Reason)
	case r.Output == "":
		return fmt.Sprintf("%s: %s", r.Verdict, r.Reason)
	}
	return fmt.Sprintf("%s: output %s %s", r.Verdict, r.Output, r.Reason)
}

// Check proves code's program against net, whose outputs and inputs the
// program's OutputTag and InputTag name. A hardened program may be checked
// against its unhardened net: the builder folds the three replicas and
// their vote back into one.
func Check(code *codegen.Result, net *logic.Net) Result {
	if err := net.Validate(); err != nil {
		return Result{Verdict: Unproven, Op: -1, Reason: err.Error()}
	}
	m := newMachine(code)
	m.b.Grow(2 * len(net.Gates))
	// The net's inputs are declared before anything uses them, so each
	// WRITE of a net input and each GInput gate meet at one literal.
	for _, name := range net.InputNames {
		m.input(name)
	}
	for i := range code.Prog.Ops {
		if err := m.step(&code.Prog.Ops[i]); err != nil {
			return Result{Verdict: Refuted, Op: i, Reason: err.Error()}
		}
	}

	ids := make([]logic.NodeID, len(net.Gates))
	for i := range ids {
		ids[i] = logic.None
	}
	for i, in := range net.Inputs {
		ids[in] = m.input(net.InputNames[i])
	}
	b := m.b
	for i, g := range net.Gates {
		a := g.Args
		switch g.Kind {
		case logic.GInput:
			if ids[i] == logic.None {
				return Result{Verdict: Unproven, Op: -1, Reason: fmt.Sprintf("net input node %d is not listed", i)}
			}
		case logic.GConst0:
			ids[i] = b.Const(false)
		case logic.GConst1:
			ids[i] = b.Const(true)
		case logic.GNot:
			ids[i] = b.Not(ids[a[0]])
		case logic.GAnd:
			ids[i] = b.And(ids[a[0]], ids[a[1]])
		case logic.GOr:
			ids[i] = b.Or(ids[a[0]], ids[a[1]])
		case logic.GXor:
			ids[i] = b.Xor(ids[a[0]], ids[a[1]])
		case logic.GMaj:
			ids[i] = b.Maj(ids[a[0]], ids[a[1]], ids[a[2]])
		default:
			return Result{Verdict: Unproven, Op: -1, Reason: fmt.Sprintf("net gate %d has unknown kind %d", i, g.Kind)}
		}
	}

	var diff []int // outputs whose program and net ids differ
	for i, o := range net.Outputs {
		name := net.OutputNames[i]
		tag, ok := code.OutputTag[name]
		if !ok {
			return Result{Verdict: Refuted, Op: -1, Output: name, Reason: "has no READ tag"}
		}
		got, ok := m.reads[tag]
		if !ok {
			return Result{Verdict: Refuted, Op: -1, Output: name, Reason: fmt.Sprintf("is never READ (tag %d)", tag)}
		}
		if got != ids[o] {
			b.Output("p"+strconv.Itoa(i), got)
			b.Output("n"+strconv.Itoa(i), ids[o])
			diff = append(diff, i)
		}
	}
	if len(diff) == 0 {
		return Result{Verdict: Proved, Op: -1}
	}
	return simulate(b.Net(), net, diff)
}

// simulate looks for a counterexample among the differing outputs diff of
// net, registered on the builder's net n as "p<i>" (program) and "n<i>"
// (net). Even words are uniform; in odd ones the density of ones grades
// across the lanes from 1/65 to 64/65 (weighted random patterns), which
// reaches the rare branches uniform vectors almost never take (SW's
// few = n < 50) and the near-threshold corners of compares and popcounts.
func simulate(n, net *logic.Net, diff []int) Result {
	rng := rand.New(rand.NewSource(1))
	for w := 0; w < simWords; w++ {
		in := make(map[string]uint64, len(n.InputNames))
		for _, name := range n.InputNames {
			v := rng.Uint64()
			if w%2 == 1 {
				v = 0
				for l := 0; l < 64; l++ {
					if rng.Intn(65) <= l {
						v |= 1 << l
					}
				}
			}
			in[name] = v
		}
		out, err := n.Eval(in)
		if err != nil {
			return Result{Verdict: Unproven, Op: -1, Reason: err.Error()}
		}
		for _, i := range diff {
			k := strconv.Itoa(i)
			if d := out["p"+k] ^ out["n"+k]; d != 0 {
				return Result{Verdict: Refuted, Op: -1, Output: net.OutputNames[i], Inputs: in, Lanes: d,
					Reason: fmt.Sprintf("differs from the net on %d of 64 lanes", bits.OnesCount64(d))}
			}
		}
	}
	return Result{Verdict: Unproven, Op: -1, Output: net.OutputNames[diff[0]],
		Reason: fmt.Sprintf("differs from the net in form; %d random vectors agree", 64*simWords)}
}

// numSpecial is the number of C- and B-group rows (isa.C0 .. isa.DCC1N),
// which take the first row slots; D-group row r is slot numSpecial+r.
const numSpecial = 10

func slot(r isa.Row) (int, bool) {
	if r >= 0 {
		return numSpecial + int(r), true
	}
	if r >= isa.DCC1N {
		return -1 - int(r), true
	}
	return 0, false
}

// machine is the symbolic subarray: the builder every value lives in, the
// rows (by slot; None = never written), the spill slots, the literals, the
// program's host tags, and what each READ tag last carried.
type machine struct {
	b      *logic.Builder
	code   *codegen.Result
	rows   []logic.NodeID
	spill  map[uint64]logic.NodeID
	inputs map[string]logic.NodeID
	inName map[int]string
	outTag map[int]bool
	reads  map[int]logic.NodeID
}

func newMachine(code *codegen.Result) *machine {
	m := &machine{
		b:      new(logic.Scratch).Builder(logic.BuilderOptions{Fold: true, CSE: true}),
		code:   code,
		rows:   make([]logic.NodeID, numSpecial+code.Prog.DRowsUsed),
		spill:  make(map[uint64]logic.NodeID),
		inputs: make(map[string]logic.NodeID),
		inName: make(map[int]string, len(code.InputTag)),
		outTag: make(map[int]bool, len(code.OutputTag)),
		reads:  make(map[int]logic.NodeID, len(code.OutputTag)),
	}
	for i := range m.rows {
		m.rows[i] = logic.None
	}
	m.rows[-1-int(isa.C0)] = m.b.Const(false)
	m.rows[-1-int(isa.C1)] = m.b.Const(true)
	for name, tag := range code.InputTag {
		m.inName[tag] = name
	}
	for _, tag := range code.OutputTag {
		m.outTag[tag] = true
	}
	return m
}

// input returns the literal of the named input, declaring it on first use.
func (m *machine) input(name string) logic.NodeID {
	id, ok := m.inputs[name]
	if !ok {
		id = m.b.Input(name)
		m.inputs[name] = id
	}
	return id
}

func (m *machine) get(r isa.Row) (logic.NodeID, error) {
	if i, ok := slot(r); ok && i < len(m.rows) && m.rows[i] != logic.None {
		return m.rows[i], nil
	}
	return logic.None, fmt.Errorf("read of undefined row %s", r)
}

// set stores v in r, and its NOT in r's dual-contact partner.
func (m *machine) set(r isa.Row, v logic.NodeID) error {
	i, ok := slot(r)
	if !ok {
		return fmt.Errorf("write to row %s outside the subarray", r)
	}
	for i >= len(m.rows) {
		m.rows = append(m.rows, logic.None)
	}
	m.rows[i] = v
	if c := r.Complement(); c != isa.RowNone {
		ci, _ := slot(c)
		m.rows[ci] = m.b.Not(v)
	}
	return nil
}

// constant is the value of a row filled with pattern: only uniform rows
// have one.
func (m *machine) constant(pattern uint64) (logic.NodeID, error) {
	if pattern != 0 && pattern != ^uint64(0) {
		return logic.None, fmt.Errorf("non-uniform row pattern %#x", pattern)
	}
	return m.b.Const(pattern != 0), nil
}

// step executes one op symbolically: first the value it moves, then where
// the value goes. It fails where sim's µop body fails, and on what has no
// value in the symbolic domain or no place in the program's interface: a
// non-uniform row pattern, a READ of a tag no output has.
func (m *machine) step(op *isa.Op) error {
	var v logic.NodeID
	var err error
	switch op.Kind {
	case isa.OpAAP, isa.OpRead, isa.OpSpillOut:
		v, err = m.get(op.Src)
	case isa.OpAP:
		var a [3]logic.NodeID
		for i := 0; i < 3 && err == nil; i++ {
			a[i], err = m.get(op.Dst[i])
		}
		if err == nil {
			v = m.b.Maj(a[0], a[1], a[2])
		}
	case isa.OpRowInit:
		v, err = m.constant(op.Imm)
		if d := op.Dst[0]; err == nil && d.IsCGroup() && (d == isa.C1) != (op.Imm != 0) {
			err = fmt.Errorf("ROWINIT %s with wrong pattern %#x", d, op.Imm)
		}
	case isa.OpWrite:
		name, in := m.inName[int(op.Tag)]
		pat, c := m.code.ConstPattern[int(op.Tag)]
		switch {
		case in:
			v = m.input(name)
		case c:
			v, err = m.constant(pat)
		default:
			err = fmt.Errorf("WRITE of unknown tag %d", op.Tag)
		}
	case isa.OpSpillIn:
		var ok bool
		if v, ok = m.spill[op.Imm]; !ok {
			err = fmt.Errorf("SPILL_IN of unwritten slot %d", op.Imm)
		}
	default:
		err = fmt.Errorf("unknown op kind %d", int(op.Kind))
	}
	if err != nil {
		return err
	}

	switch op.Kind {
	case isa.OpRead:
		if !m.outTag[int(op.Tag)] {
			return fmt.Errorf("READ of unknown tag %d", op.Tag)
		}
		m.reads[int(op.Tag)] = v
		return nil
	case isa.OpSpillOut:
		m.spill[op.Imm] = v
		return nil
	}
	dsts := op.Dst[:1]
	switch op.Kind {
	case isa.OpAAP:
		dsts = op.Dsts()
	case isa.OpAP:
		dsts = op.Dst[:]
	}
	for _, d := range dsts {
		if d.IsCGroup() && (op.Kind == isa.OpAAP || op.Kind == isa.OpWrite) {
			return fmt.Errorf("%s into constant row %s", op.Kind, d)
		}
		if err := m.set(d, v); err != nil {
			return err
		}
	}
	return nil
}

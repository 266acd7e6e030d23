// Package prove is a translation validator for the back end. Everything
// after logic.Legalize — OBS scheduling, reuse, renaming, row allocation,
// spills, code generation, TMR wiring — only moves values between rows, so
// each output bit of an emitted program must compute exactly its net's
// Boolean function. Check establishes that for every input at once (the
// method is translation validation: Pnueli, Siegel and Singerman, TACAS
// 1998).
//
// What Check proves is the program's sim.Translate translation, the form
// every clean run executes: copies, spills and dual-contact partners
// resolved to renames, and one AND, OR or MAJ per AP that computes. Its
// instructions are interned into one hash-consing builder (constant folding
// and structural hashing on, no target gate set) over a register file of
// node ids (sim.Walk):
//
//	register 0            the constant zero; a complemented operand is its NOT
//	AND, OR, MAJ          the builder's And, Or and Maj
//	load of WRITE tag     the input literal InputTag names, or a ConstPattern constant
//	READ tag              the candidate for the output OutputTag names
//
// The net is then re-interned gate by gate into the same builder. Equal ids
// are equal functions for every input and every lane count. Where the ids
// of an output differ, both cones are simulated on random vectors (64 per
// word): a difference refutes the program with a counterexample, none
// leaves it unproven. A program Translate rejects (a read of an undefined
// row, an unwritten spill slot, a copy or WRITE into a constant row), an
// unknown tag, a non-uniform constant row, or an output that is never READ
// refutes it too.
package prove

import (
	"errors"
	"fmt"
	"math/bits"
	"math/rand"
	"strconv"

	"chopper/internal/codegen"
	"chopper/internal/isa"
	"chopper/internal/logic"
	"chopper/internal/sim"
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
	b := new(logic.Scratch).Builder(logic.BuilderOptions{Fold: true})
	b.Grow(2 * len(net.Gates))
	// The net's inputs are declared before anything uses them, so each
	// load of a net input and each GInput gate meet at one literal.
	inputs := make(map[string]logic.NodeID, len(net.InputNames))
	for _, name := range net.InputNames {
		if _, ok := inputs[name]; !ok {
			inputs[name] = b.Input(name)
		}
	}
	inName := make(map[int]string, len(code.InputTag))
	for name, tag := range code.InputTag {
		inName[tag] = name
	}
	t, err := sim.Translate(code.Prog)
	if op, reason := firstFault(code, inName, err); op >= 0 {
		return Result{Verdict: Refuted, Op: op, Reason: reason}
	}
	reads := make(map[int]logic.NodeID, len(code.OutputTag))
	sim.Walk(t, b.Const(false), b.Not, b.And, b.Or, b.Maj,
		func(tag int) logic.NodeID {
			name, ok := inName[tag]
			if !ok {
				return b.Const(code.ConstPattern[tag] != 0)
			}
			if _, ok := inputs[name]; !ok {
				inputs[name] = b.Input(name) // an input the net does not have
			}
			return inputs[name]
		},
		func(tag int, v logic.NodeID) { reads[tag] = v })

	ids := make([]logic.NodeID, len(net.Gates))
	for i := range ids {
		ids[i] = logic.None
	}
	for i, in := range net.Inputs {
		ids[in] = inputs[net.InputNames[i]]
	}
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
		got, ok := reads[tag]
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

// firstFault is the first op at which code's program cannot run, and why,
// or -1: the first WRITE or READ whose tag code's host interface (inName:
// the input names by tag) does not have, or whose constant row is not
// uniform, which has no value in the Boolean domain; or the op of
// Translate's error terr, whichever comes first. Within one op the value
// is formed first: a WRITE's tag, then the rows a READ senses.
func firstFault(code *codegen.Result, inName map[int]string, terr error) (int, string) {
	ops := code.Prog.Ops
	stop := len(ops)
	var te *sim.TranslateError
	if errors.As(terr, &te) {
		stop = te.Op
	}
	outTag := make(map[int]bool, len(code.OutputTag))
	for _, tag := range code.OutputTag {
		outTag[tag] = true
	}
	for i := range ops[:min(stop+1, len(ops))] {
		op, bad := &ops[i], ""
		tag := int(op.Tag)
		pat, c := code.ConstPattern[tag]
		switch {
		case op.Kind == isa.OpRead && !outTag[tag]:
			bad = fmt.Sprintf("READ of unknown tag %d", tag)
		case op.Kind != isa.OpWrite || inName[tag] != "":
		case !c:
			bad = fmt.Sprintf("WRITE of unknown tag %d", tag)
		case pat != 0 && pat != ^uint64(0):
			bad = fmt.Sprintf("non-uniform row pattern %#x", pat)
		}
		if bad != "" && (i < stop || op.Kind == isa.OpWrite) {
			return i, bad
		}
	}
	if te != nil {
		return te.Op, te.Reason
	}
	return -1, ""
}

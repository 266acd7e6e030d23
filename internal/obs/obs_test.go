package obs

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"chopper/internal/logic"
)

// chainNet builds two dependent W-bit adds feeding a comparison — the
// paper's Figure 6 example shape (dependent operations whose intermediate
// words need not be buffered), with a 1-bit result so output rows do not
// mask the scheduling effect.
func chainNet(w int) *logic.Net {
	b := new(logic.Scratch).Builder(logic.BuilderOptions{Fold: true, CSE: true})
	a := b.InputWord("a", w)
	bb := b.InputWord("b", w)
	c := b.InputWord("c", w)
	d := b.InputWord("d", w)
	t := b.Add(a, bb)
	b.Output("z[0]", b.Eq(b.Add(t, c), d))
	return b.Net().DCE()
}

func TestVariantHierarchy(t *testing.T) {
	if Full != Rename {
		t.Error("Full must equal Rename")
	}
	checks := []struct {
		v                 Variant
		sched, reuse, ren bool
	}{
		{Bitslice, false, false, false},
		{Schedule, true, false, false},
		{Reuse, true, true, false},
		{Rename, true, true, true},
	}
	for _, c := range checks {
		if c.v.HasSchedule() != c.sched || c.v.HasReuse() != c.reuse || c.v.HasRename() != c.ren {
			t.Errorf("%v: flags wrong", c.v)
		}
	}
	names := []string{"bitslice", "schedule", "reuse", "rename"}
	for i, v := range AllVariants {
		if v.String() != names[i] {
			t.Errorf("variant %d name %q", i, v.String())
		}
	}
}

func TestScheduleCoversAllGates(t *testing.T) {
	n := chainNet(8)
	for _, aware := range []bool{false, true} {
		order := ScheduleGates(n, aware)
		if len(order) != n.OpGates() {
			t.Fatalf("aware=%v: order has %d gates, net has %d", aware, len(order), n.OpGates())
		}
		seen := make(map[logic.NodeID]bool)
		for _, id := range order {
			if seen[id] {
				t.Fatalf("aware=%v: gate %d scheduled twice", aware, id)
			}
			seen[id] = true
		}
	}
}

func TestScheduleRespectsDependencies(t *testing.T) {
	n := chainNet(16)
	order := ScheduleGates(n, true)
	posOf := make(map[logic.NodeID]int, len(order))
	for i, id := range order {
		posOf[id] = i
	}
	for _, id := range order {
		g := &n.Gates[id]
		for a := 0; a < g.Kind.Arity(); a++ {
			arg := g.Args[a]
			if p, ok := posOf[arg]; ok && p >= posOf[id] {
				t.Fatalf("gate %d scheduled before its operand %d", id, arg)
			}
		}
	}
}

// The Figure 6 effect: dependent additions aggregated, so pressure is far
// below "buffer the whole intermediate word".
func TestScheduleReducesPressureOnChains(t *testing.T) {
	n := chainNet(32)
	nat := MaxLive(n, ScheduleGates(n, false))
	opt := MaxLive(n, ScheduleGates(n, true))
	if opt >= nat {
		t.Fatalf("scheduling did not reduce pressure: %d -> %d", nat, opt)
	}
	// The aggregated schedule should need O(1) rows, not O(width).
	if opt > 12 {
		t.Errorf("aggregated pressure %d still scales with width", opt)
	}
}

// randomNet builds a seeded random net of 60 AND/OR/NOT/MAJ gates over
// three inputs, with four outputs.
func randomNet(seed int64) *logic.Net {
	rng := rand.New(rand.NewSource(seed))
	b := new(logic.Scratch).Builder(logic.BuilderOptions{Fold: true, CSE: true})
	nodes := []logic.NodeID{b.Input("x"), b.Input("y"), b.Input("z")}
	for i := 0; i < 60; i++ {
		pick := func() logic.NodeID { return nodes[rng.Intn(len(nodes))] }
		var id logic.NodeID
		switch rng.Intn(4) {
		case 0:
			id = b.And(pick(), pick())
		case 1:
			id = b.Or(pick(), pick())
		case 2:
			id = b.Not(pick())
		case 3:
			id = b.Maj(pick(), pick(), pick())
		}
		nodes = append(nodes, id)
	}
	for i := 0; i < 4; i++ {
		b.Output("o", nodes[len(nodes)-1-i*3])
	}
	return b.Net().DCE()
}

func TestScheduleNeverWorseThanNatural(t *testing.T) {
	cfg := &quick.Config{MaxCount: 30, Rand: rand.New(rand.NewSource(3))}
	prop := func(seed int64) bool {
		n := randomNet(seed)
		return MaxLive(n, ScheduleGates(n, true)) <= MaxLive(n, ScheduleGates(n, false))
	}
	if err := quick.Check(prop, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestMaxLiveSimple(t *testing.T) {
	// x&y and x|y both feeding a final and: natural order holds both
	// intermediates live at once.
	b := new(logic.Scratch).Builder(logic.BuilderOptions{Fold: true, CSE: true})
	x := b.Input("x")
	y := b.Input("y")
	a1 := b.And(x, y)
	o1 := b.Or(x, y)
	b.Output("z", b.And(a1, o1))
	n := b.Net()
	order := ScheduleGates(n, false)
	// a1 and o1 are live together, then the output result joins them
	// before they are freed: peak 3 (output rows stay resident).
	if got := MaxLive(n, order); got != 3 {
		t.Errorf("MaxLive = %d, want 3", got)
	}
}

func TestScheduleEmptyNet(t *testing.T) {
	b := new(logic.Scratch).Builder(logic.BuilderOptions{Fold: true, CSE: true})
	x := b.Input("x")
	b.Output("z", x)
	n := b.Net()
	if got := ScheduleGates(n, true); len(got) != 0 {
		t.Errorf("passthrough net scheduled %d gates", len(got))
	}
}

func TestParseVariant(t *testing.T) {
	for _, v := range AllVariants {
		for _, s := range []string{v.String(), strings.ToUpper(v.String())} {
			if got, err := ParseVariant(s); err != nil || got != v {
				t.Errorf("ParseVariant(%q) = %v, %v", s, got, err)
			}
		}
	}
	_, err := ParseVariant("turbo")
	if err == nil || !strings.Contains(err.Error(), "bitslice, schedule, reuse, rename") {
		t.Errorf("bogus level: error %v does not list the valid names", err)
	}
}

// checkChain holds Chain's output to its contract on one input order: a
// permutation of order that keeps every gate after its operands, with no
// more buffering pressure, in which every producer Chain took out of
// place sits directly before its one consumer. Gates that do not sit
// right before their one consumer (chain roots) keep order's relative
// order, so a producer that moved anywhere else would show up there.
func checkChain(n *logic.Net, order []logic.NodeID) error {
	in := slices.Clone(order)
	var s Scratch
	out, moved := s.Chain(n, order)
	if !slices.Equal(order, in) {
		return fmt.Errorf("Chain rewrote its input order")
	}
	if len(out) != len(in) {
		return fmt.Errorf("chained order has %d gates, input %d", len(out), len(in))
	}
	if moved == 0 && !slices.Equal(out, in) {
		return fmt.Errorf("moved 0 producers but changed the order")
	}
	fanout := make([]int, len(n.Gates))
	consumer := make([]logic.NodeID, len(n.Gates))
	for i := range n.Gates {
		g := &n.Gates[i]
		for a := 0; a < g.Kind.Arity(); a++ {
			fanout[g.Args[a]]++
			consumer[g.Args[a]] = logic.NodeID(i)
		}
	}
	for _, o := range n.Outputs {
		fanout[o]++
	}
	at := make(map[logic.NodeID]int, len(out))
	for i, id := range out {
		if _, dup := at[id]; dup {
			return fmt.Errorf("gate %d emitted twice", id)
		}
		at[id] = i
	}
	for _, id := range in {
		if _, ok := at[id]; !ok {
			return fmt.Errorf("gate %d dropped", id)
		}
	}
	for i, id := range out {
		g := &n.Gates[id]
		for a := 0; a < g.Kind.Arity(); a++ {
			if p, ok := at[g.Args[a]]; ok && p >= i {
				return fmt.Errorf("gate %d at %d before its operand %d at %d", id, i, g.Args[a], p)
			}
		}
	}
	if got, was := MaxLive(n, out), MaxLive(n, in); got > was {
		return fmt.Errorf("chaining raised MaxLive %d -> %d", was, got)
	}
	chained := func(i int) bool {
		id := out[i]
		return isTRA(n.Gates[id].Kind) && fanout[id] == 1 && i+1 < len(out) && out[i+1] == consumer[id]
	}
	var rootsIn, rootsOut []logic.NodeID
	for i := range in {
		if !chained(i) {
			rootsOut = append(rootsOut, out[i])
		}
	}
	for _, id := range in {
		if !chained(at[id]) {
			rootsIn = append(rootsIn, id)
		}
	}
	if !slices.Equal(rootsIn, rootsOut) {
		return fmt.Errorf("a gate not right before its consumer moved")
	}
	return nil
}

func TestChainOrderProperties(t *testing.T) {
	moved := 0
	for seed := int64(0); seed < 200; seed++ {
		n := randomNet(seed)
		for _, aware := range []bool{false, true} {
			order := ScheduleGates(n, aware)
			if err := checkChain(n, order); err != nil {
				t.Fatalf("seed %d, pressureAware %v: %v", seed, aware, err)
			}
			_, m := new(Scratch).Chain(n, order)
			moved += m
		}
	}
	if moved == 0 {
		t.Fatal("no random net had a producer to move")
	}
}

// Chain on the scheduler's own order reuses its tables and MaxLive; the
// result must equal Chain on a copy of that order, which recomputes them.
func TestChainReusesSchedule(t *testing.T) {
	for seed := int64(0); seed < 50; seed++ {
		n := randomNet(seed)
		var s Scratch
		own, m1 := s.Chain(n, s.ScheduleGates(n, true))
		own = slices.Clone(own)
		copied, m2 := new(Scratch).Chain(n, slices.Clone(ScheduleGates(n, true)))
		if !slices.Equal(own, copied) || m1 != m2 {
			t.Fatalf("seed %d: reused tables chain %v (%d moved), fresh %v (%d moved)", seed, own, m1, copied, m2)
		}
	}
}

// An OR consumed only by a gate two steps later moves right before it.
func TestChainMovesOneShotProducer(t *testing.T) {
	b := new(logic.Scratch).Builder(logic.BuilderOptions{})
	x, y := b.Input("x"), b.Input("y")
	o := b.Or(x, y)
	a := b.And(x, y)
	na := b.Not(a)
	z := b.And(o, na)
	b.Output("z", z)
	n := b.Net()
	order := ScheduleGates(n, false)
	got, moved := new(Scratch).Chain(n, order)
	if want := []logic.NodeID{a, na, o, z}; !slices.Equal(got, want) || moved != 1 {
		t.Fatalf("Chain(%v) = %v, %d moved; want %v, 1 moved", order, got, moved, want)
	}

	// With two one-shot operands, the later one is the chain operand.
	b = new(logic.Scratch).Builder(logic.BuilderOptions{})
	x, y = b.Input("x"), b.Input("y")
	p1 := b.And(x, y)
	p2 := b.Or(x, y)
	f := b.Not(x)
	c := b.And(p1, p2)
	b.Output("f", f)
	b.Output("c", c)
	n = b.Net()
	order = ScheduleGates(n, false)
	got, moved = new(Scratch).Chain(n, order)
	if want := []logic.NodeID{p1, f, p2, c}; !slices.Equal(got, want) || moved != 1 {
		t.Fatalf("Chain(%v) = %v, %d moved; want %v, 1 moved", order, got, moved, want)
	}
}

func FuzzChainOrder(f *testing.F) {
	for _, seed := range []int64{0, 1, 7, 42} {
		f.Add(seed, false)
		f.Add(seed, true)
	}
	f.Fuzz(func(t *testing.T, seed int64, aware bool) {
		n := randomNet(seed)
		if err := checkChain(n, ScheduleGates(n, aware)); err != nil {
			t.Fatal(err)
		}
	})
}

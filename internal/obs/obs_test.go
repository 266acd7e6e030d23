package obs

import (
	"math/rand"
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
	b := logic.NewOptBuilder()
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

func TestScheduleNeverWorseThanNatural(t *testing.T) {
	cfg := &quick.Config{MaxCount: 30, Rand: rand.New(rand.NewSource(3))}
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		b := logic.NewOptBuilder()
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
		n := b.Net().DCE()
		return MaxLive(n, ScheduleGates(n, true)) <= MaxLive(n, ScheduleGates(n, false))
	}
	if err := quick.Check(prop, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestMaxLiveSimple(t *testing.T) {
	// x&y and x|y both feeding a final and: natural order holds both
	// intermediates live at once.
	b := logic.NewOptBuilder()
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
	b := logic.NewOptBuilder()
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

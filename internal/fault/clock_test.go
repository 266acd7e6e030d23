package fault

import (
	"math/rand"
	"testing"

	"chopper/internal/isa"
)

// TestClockMatchesMap drives the access clock and a plain map through the
// same random accesses, scrubs, checkpoints, restores and resets — over
// special rows and D rows up to the last of the Table-I geometry, the rows
// the simulator has — and requires every read-back and the accessed-row
// count a scrub reports to agree.
func TestClockMatchesMap(t *testing.T) {
	rows := []isa.Row{isa.C0, isa.C1, isa.T0, isa.DCC1N, 0, 1, 7, 1005}
	rng := rand.New(rand.NewSource(1))
	var c, ck clock
	m, ckm := map[isa.Row]int{}, map[isa.Row]int{}
	copyMap := func(dst, src map[isa.Row]int) {
		clear(dst)
		for r, t := range src {
			dst[r] = t
		}
	}
	for step := 0; step < 20000; step++ {
		r := rows[rng.Intn(len(rows))]
		switch op := rng.Intn(100); {
		case op < 70:
			c.set(r, step)
			m[r] = step
		case op < 75:
			if n := c.setAll(step); n != len(m) {
				t.Fatalf("step %d: a scrub counts %d rows, map %d", step, n, len(m))
			}
			for k := range m {
				m[k] = step
			}
		case op < 85:
			ck.copyFrom(&c)
			copyMap(ckm, m)
		case op < 95:
			c.copyFrom(&ck)
			copyMap(m, ckm)
		default:
			c.reset()
			clear(m)
		}
		for _, r := range rows {
			got, gotOK := c.get(r)
			want, wantOK := m[r]
			if got != want || gotOK != wantOK {
				t.Fatalf("step %d row %v: clock %d,%v, map %d,%v", step, r, got, gotOK, want, wantOK)
			}
		}
	}
}

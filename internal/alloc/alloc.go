// Package alloc provides the row allocators used by the two code
// generators:
//
//   - RowPool, a free-list allocator over D-group rows with explicit
//     free/occupancy tracking, used by the CHOPPER back-end, which assigns
//     rows at single-bitslice granularity and picks spill victims by
//     furthest-next-use (Belady);
//   - LinearScan, the classic Poletto–Sarkar linear scan over live
//     intervals, which is the allocation strategy the SIMDRAM hands-tuned
//     methodology reuses (at full operand granularity).
package alloc

import (
	"fmt"
	"sort"

	"chopper/internal/isa"
)

// RowPool allocates D-group row indices [base, base+n).
type RowPool struct {
	n       int
	base    int
	free    []isa.Row // stack of free rows
	inUse   []bool    // inUse[r-base]: occupancy, dense by row offset
	maxUsed int       // high-water mark of simultaneously allocated rows
}

// NewRowPool creates a pool of n rows starting at row 0.
func NewRowPool(n int) *RowPool { return NewRowPoolAt(0, n) }

// NewRowPoolAt creates a pool of n rows starting at row base (used when a
// region of the subarray is reserved for externally managed operands).
func NewRowPoolAt(base, n int) *RowPool {
	p := new(RowPool)
	p.Reset(base, n)
	return p
}

// Reset re-initializes the pool in place to n rows starting at base,
// reusing the free-list and occupancy storage from a previous compile.
// A zero RowPool is valid input.
func (p *RowPool) Reset(base, n int) {
	if n <= 0 || base < 0 {
		panic(fmt.Sprintf("alloc: pool of %d rows at %d", n, base))
	}
	p.n, p.base, p.maxUsed = n, base, 0
	if cap(p.free) < n {
		p.free = make([]isa.Row, 0, n)
		p.inUse = make([]bool, n)
	} else {
		p.free = p.free[:0]
		p.inUse = p.inUse[:n]
		clear(p.inUse)
	}
	// Hand out low rows first (stable, debuggable programs).
	for i := base + n - 1; i >= base; i-- {
		p.free = append(p.free, isa.Row(i))
	}
}

// offset translates a row to its dense occupancy index, or -1 when the
// row is outside the pool.
func (p *RowPool) offset(r isa.Row) int {
	i := int(r) - p.base
	if i < 0 || i >= p.n {
		return -1
	}
	return i
}

// Alloc returns a free row, or ok=false when the pool is exhausted (the
// caller must then spill a victim and Free its row).
func (p *RowPool) Alloc() (isa.Row, bool) {
	if len(p.free) == 0 {
		return isa.RowNone, false
	}
	r := p.free[len(p.free)-1]
	p.free = p.free[:len(p.free)-1]
	p.inUse[p.offset(r)] = true
	if used := p.n - len(p.free); used > p.maxUsed {
		p.maxUsed = used
	}
	return r, true
}

// Free returns a row to the pool. Freeing a row that is not allocated is a
// compiler bug and panics.
func (p *RowPool) Free(r isa.Row) {
	i := p.offset(r)
	if i < 0 || !p.inUse[i] {
		panic(fmt.Sprintf("alloc: double free of row %s", r))
	}
	p.inUse[i] = false
	p.free = append(p.free, r)
}

// Live returns the number of currently allocated rows.
func (p *RowPool) Live() int { return p.n - len(p.free) }

// MaxUsed returns the high-water mark of simultaneously allocated rows.
func (p *RowPool) MaxUsed() int { return p.maxUsed }

// Interval is a live range over instruction positions [Start, End]
// (inclusive), Rows wide (a full-size operand occupies Width rows; CHOPPER
// intervals are 1 row). ID indexes LinearScanResult.Assignments, so it is
// non-negative.
type Interval struct {
	ID    int
	Start int
	End   int
	Rows  int
}

// Assignment is the result of linear scan for one interval.
type Assignment struct {
	Rows    []isa.Row // one row per value row; nil if spilled
	Spilled bool
}

// LinearScanResult summarizes an allocation.
type LinearScanResult struct {
	// Assignments is indexed by interval ID; the zero Assignment (no rows,
	// not spilled) marks an ID no interval carries.
	Assignments []Assignment
	MaxRows     int // high-water mark of rows in use
	Spilled     int // number of spilled intervals
	SpillRows   int // total rows' worth of spilled data
}

// LinearScan allocates intervals over a pool of `rows` rows using the
// Poletto–Sarkar algorithm generalized to multi-row values: intervals are
// visited in order of increasing start; expired intervals release their
// rows; if no block of Rows consecutive... (rows need not be consecutive in
// DRAM — any set of rows works, so only the count matters); when the pool
// is exhausted the interval with the furthest end point among the active
// set (or the new one) is spilled.
func LinearScan(intervals []Interval, rows int) LinearScanResult {
	maxID, total := -1, 0
	for _, iv := range intervals {
		maxID = max(maxID, iv.ID)
		total += max(iv.Rows, 1)
	}
	res := LinearScanResult{Assignments: make([]Assignment, maxID+1)}
	// Every interval's rows are carved from one array.
	backing := make([]isa.Row, total)
	ivs := append([]Interval(nil), intervals...)
	sort.SliceStable(ivs, func(i, j int) bool { return ivs[i].Start < ivs[j].Start })

	type active struct {
		iv   Interval
		rows []isa.Row
	}
	var actives []active
	pool := NewRowPool(rows)

	expire := func(pos int) {
		kept := actives[:0]
		for _, a := range actives {
			if a.iv.End < pos {
				for _, r := range a.rows {
					pool.Free(r)
				}
			} else {
				kept = append(kept, a)
			}
		}
		actives = kept
	}

	for _, iv := range ivs {
		if iv.Rows <= 0 {
			iv.Rows = 1
		}
		expire(iv.Start)
		for pool.Live()+iv.Rows > rows {
			// Spill the active interval ending furthest away; if the
			// new interval ends even later (or nothing can be freed),
			// spill the new one.
			victim := -1
			furthest := iv.End
			for i, a := range actives {
				if a.iv.End > furthest {
					furthest = a.iv.End
					victim = i
				}
			}
			if victim < 0 {
				res.Assignments[iv.ID] = Assignment{Spilled: true}
				res.Spilled++
				res.SpillRows += iv.Rows
				iv.Rows = 0 // nothing to allocate
				break
			}
			v := actives[victim]
			for _, r := range v.rows {
				pool.Free(r)
			}
			actives = append(actives[:victim], actives[victim+1:]...)
			res.Assignments[v.iv.ID] = Assignment{Spilled: true}
			res.Spilled++
			res.SpillRows += v.iv.Rows
		}
		if iv.Rows == 0 {
			continue
		}
		got := backing[:iv.Rows:iv.Rows]
		backing = backing[iv.Rows:]
		for i := range got {
			r, ok := pool.Alloc()
			if !ok {
				panic("alloc: linear scan accounting error")
			}
			got[i] = r
		}
		actives = append(actives, active{iv, got})
		res.Assignments[iv.ID] = Assignment{Rows: got}
		if pool.Live() > res.MaxRows {
			res.MaxRows = pool.Live()
		}
	}
	if pool.MaxUsed() > res.MaxRows {
		res.MaxRows = pool.MaxUsed()
	}
	return res
}

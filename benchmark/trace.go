package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"
)

// The traced run records one span per call into a layer, from the
// benchmark's own files: spans live in memory until the run ends and are
// then written to traceFile. Tracing inside the program is a later change.

const traceFile = "benchmark/out/trace.json"

// span is one timed call. Spans of one op share Item; Parent is the span
// that caused this one (-1 for an op's root span).
type span struct {
	ID       int     `json:"id"`
	Parent   int     `json:"parent"`
	Workload string  `json:"workload"`
	Cycle    int     `json:"cycle"` // staged cycle the op belongs to (cycle 0 warms the benchmark's own buffers)
	Item     string  `json:"item"`
	Name     string  `json:"name"`
	StartNs  int64   `json:"start_ns"`
	EndNs    int64   `json:"end_ns"`
	Size     float64 `json:"size,omitempty"`      // what the stage produced
	SizeUnit string  `json:"size_unit,omitempty"` // values, gates, uops, bytes
	// Within names a sibling span that already contains this work: the
	// stage was re-run standalone to size its share (obs.schedule inside
	// codegen.generate), so it must not be summed again.
	Within string `json:"within,omitempty"`
}

func (s *span) dur() int64 { return s.EndNs - s.StartNs }

// tracer collects spans; safe for the goroutines of one fan-out.
type tracer struct {
	mu       sync.Mutex
	t0       time.Time
	workload string
	cycle    int
	spans    []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// stamp sets the workload and cycle that spans opened from now on carry.
func (t *tracer) stamp(workload string, cycle int) {
	t.mu.Lock()
	t.workload, t.cycle = workload, cycle
	t.mu.Unlock()
}

// begin opens a span and returns its id.
func (t *tracer) begin(name, item string, parent int) int {
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Workload: t.workload, Cycle: t.cycle, Item: item, Name: name, StartNs: now, EndNs: now})
	t.mu.Unlock()
	return id
}

// end closes a span, recording the size its stage produced.
func (t *tracer) end(id int, size float64, unit string) {
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	s := &t.spans[id]
	s.EndNs, s.Size, s.SizeUnit = now, size, unit
	t.mu.Unlock()
}

// record adds a finished root span from an interval measured elsewhere
// (the service workloads time each request inside the timed region and
// turn the replies into spans afterwards).
func (t *tracer) record(name, item string, start time.Time, d time.Duration, size float64, unit string) {
	id := t.begin(name, item, -1)
	s := &t.spans[id]
	s.StartNs = int64(start.Sub(t.t0))
	s.EndNs, s.Size, s.SizeUnit = s.StartNs+int64(d), size, unit
}

// markWithin flags a standalone re-run of work a sibling span contains.
func (t *tracer) markWithin(id int, sibling string) {
	t.mu.Lock()
	t.spans[id].Within = sibling
	t.mu.Unlock()
}

// selfTimes returns, per span, its duration minus the part of its
// interval that its child spans cover (children may overlap each other
// when a stage fans out, so the covered part is a union, not a sum).
// spans[i].ID must be i, which is how a tracer numbers them.
func selfTimes(spans []span) []int64 {
	children := make(map[int][]int, len(spans))
	for i := range spans {
		if p := spans[i].Parent; p >= 0 {
			children[p] = append(children[p], i)
		}
	}
	self := make([]int64, len(spans))
	for i := range spans {
		s := &spans[i]
		kids := children[s.ID]
		sort.Slice(kids, func(a, b int) bool { return spans[kids[a]].StartNs < spans[kids[b]].StartNs })
		covered, edge := int64(0), s.StartNs
		for _, k := range kids {
			lo, hi := spans[k].StartNs, spans[k].EndNs
			if lo < edge {
				lo = edge
			}
			if hi > s.EndNs {
				hi = s.EndNs
			}
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[i] = s.dur() - covered
	}
	return self
}

// layerOf maps a span name onto its layer (the module it calls into).
func layerOf(name string) string {
	layer, _, _ := strings.Cut(name, ".")
	return layer
}

// layerSelfShares sums self time per layer over the spans that satisfy
// keep, as shares of the total. An op's root span is left out (it is the
// op, not a layer), and a standalone re-run moves its time from the layer
// of the sibling that contains the work to its own.
func layerSelfShares(spans []span, keep func(*span) bool) map[string]float64 {
	self := selfTimes(spans)
	byLayer := map[string]float64{}
	var total float64
	for i := range spans {
		s := &spans[i]
		if s.Parent < 0 || !keep(s) {
			continue
		}
		byLayer[layerOf(s.Name)] += float64(self[i])
		if s.Within != "" {
			byLayer[layerOf(s.Within)] -= float64(self[i])
			continue
		}
		total += float64(self[i])
	}
	for l := range byLayer {
		byLayer[l] /= total
	}
	return byLayer
}

// writeTrace writes every span as one JSON document.
func writeTrace(spans []span) error {
	if err := os.MkdirAll(filepath.Dir(traceFile), 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(struct {
		Schema string `json:"schema"`
		Spans  []span `json:"spans"`
	}{"chopper-benchmark-trace/v1", spans})
	if err != nil {
		return err
	}
	return os.WriteFile(traceFile, data, 0o644)
}

package serve

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
)

// histBuckets log-spaced latency buckets: 1 us growing by 1.3x covers
// 1 us .. ~1000 s, plenty for queue-wait-inclusive request latencies.
const (
	histBuckets = 80
	histBaseNs  = 1e3
	histGrowth  = 1.3
)

// histogram is a fixed log-bucketed latency histogram. Observations and
// quantile reads are mutex-guarded; at service rates the contention is
// negligible and the memory footprint is constant.
type histogram struct {
	mu     sync.Mutex
	counts [histBuckets]uint64
	n      uint64
}

func bucketFor(ns float64) int {
	if ns <= histBaseNs {
		return 0
	}
	i := int(math.Log(ns/histBaseNs) / math.Log(histGrowth))
	if i >= histBuckets {
		return histBuckets - 1
	}
	return i
}

func bucketUpperNs(i int) float64 {
	return histBaseNs * math.Pow(histGrowth, float64(i+1))
}

func (h *histogram) observe(ns float64) {
	h.mu.Lock()
	h.counts[bucketFor(ns)]++
	h.n++
	h.mu.Unlock()
}

// quantileNs returns an upper-bound estimate of the q-quantile (the upper
// edge of the bucket holding it), or 0 with no observations.
func (h *histogram) quantileNs(q float64) float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.n == 0 {
		return 0
	}
	rank := uint64(math.Ceil(q * float64(h.n)))
	if rank < 1 {
		rank = 1
	}
	var cum uint64
	for i := 0; i < histBuckets; i++ {
		cum += h.counts[i]
		if cum >= rank {
			return bucketUpperNs(i)
		}
	}
	return bucketUpperNs(histBuckets - 1)
}

// occBucketEdges are the upper edges of the batch-occupancy histogram
// (members per coalesced pass). The last edge equals maxBatchSizeCap,
// so every pass lands in a finite bucket.
var occBucketEdges = [...]int{1, 2, 4, 8, 16, 32, 64}

// classMetrics aggregates one QoS class's request accounting.
type classMetrics struct {
	admitted uint64
	shed     uint64
	drained  uint64
	deadline uint64 // gave up waiting in queue (deadline/cancel)
	statuses map[int]uint64
	latency  histogram

	// Coalesced-pass accounting: passes executed, requests served
	// batched (pass occupancy >= 2) vs solo (window closed with one
	// member), and the occupancy histogram.
	batchPasses   uint64
	batchedReqs   uint64
	soloBatchReqs uint64
	occCounts     [len(occBucketEdges)]uint64
	occSum        uint64
}

// metrics is the server-wide observability state rendered by /metrics.
type metrics struct {
	mu      sync.Mutex
	byClass [numClasses]classMetrics
	panics  uint64
	// decodeFallbacks counts bodies the wire codec's canonical path
	// declined and encoding/json decoded.
	decodeFallbacks uint64
}

func newMetrics() *metrics {
	m := &metrics{}
	for i := range m.byClass {
		m.byClass[i].statuses = make(map[int]uint64)
	}
	return m
}

func (m *metrics) admitted(c Class) {
	m.mu.Lock()
	m.byClass[c].admitted++
	m.mu.Unlock()
}

// rejected accounts an admission failure by kind.
func (m *metrics) rejected(c Class, kind string) {
	m.mu.Lock()
	switch kind {
	case "shed":
		m.byClass[c].shed++
	case "draining":
		m.byClass[c].drained++
	default:
		m.byClass[c].deadline++
	}
	m.mu.Unlock()
}

// finished records a completed request: final status code and
// end-to-end latency (queue wait included).
func (m *metrics) finished(c Class, status int, ns float64) {
	m.mu.Lock()
	m.byClass[c].statuses[status]++
	m.mu.Unlock()
	m.byClass[c].latency.observe(ns)
}

// batchExecuted records one coalesced pass of n members.
func (m *metrics) batchExecuted(c Class, n int) {
	m.mu.Lock()
	cm := &m.byClass[c]
	cm.batchPasses++
	cm.occSum += uint64(n)
	for i, edge := range occBucketEdges {
		if n <= edge {
			cm.occCounts[i]++
			break
		}
	}
	if n >= 2 {
		cm.batchedReqs += uint64(n)
	} else {
		cm.soloBatchReqs++
	}
	m.mu.Unlock()
}

func (m *metrics) fellBack() {
	m.mu.Lock()
	m.decodeFallbacks++
	m.mu.Unlock()
}

func (m *metrics) panicked() {
	m.mu.Lock()
	m.panics++
	m.mu.Unlock()
}

// render writes the Prometheus-style text exposition. gauges carries
// server-level lines (queue depths, cache counters, drain state) the
// metrics struct does not own.
func (m *metrics) render(sb *strings.Builder) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for c := Class(0); c < numClasses; c++ {
		cm := &m.byClass[c]
		codes := make([]int, 0, len(cm.statuses))
		for code := range cm.statuses {
			codes = append(codes, code)
		}
		sort.Ints(codes)
		for _, code := range codes {
			fmt.Fprintf(sb, "chopperd_requests_total{class=%q,code=\"%d\"} %d\n", c, code, cm.statuses[code])
		}
		fmt.Fprintf(sb, "chopperd_admitted_total{class=%q} %d\n", c, cm.admitted)
		fmt.Fprintf(sb, "chopperd_shed_total{class=%q} %d\n", c, cm.shed)
		fmt.Fprintf(sb, "chopperd_drain_rejected_total{class=%q} %d\n", c, cm.drained)
		fmt.Fprintf(sb, "chopperd_queue_timeout_total{class=%q} %d\n", c, cm.deadline)
		for _, q := range []float64{0.5, 0.99, 0.999} {
			fmt.Fprintf(sb, "chopperd_latency_ns{class=%q,quantile=\"%g\"} %.0f\n", c, q, cm.byClassQuantile(q))
		}
		fmt.Fprintf(sb, "chopperd_batch_passes_total{class=%q} %d\n", c, cm.batchPasses)
		fmt.Fprintf(sb, "chopperd_batch_requests_total{class=%q,mode=\"batched\"} %d\n", c, cm.batchedReqs)
		fmt.Fprintf(sb, "chopperd_batch_requests_total{class=%q,mode=\"solo\"} %d\n", c, cm.soloBatchReqs)
		var cum uint64
		for i, edge := range occBucketEdges {
			cum += cm.occCounts[i]
			fmt.Fprintf(sb, "chopperd_batch_occupancy_bucket{class=%q,le=\"%d\"} %d\n", c, edge, cum)
		}
		fmt.Fprintf(sb, "chopperd_batch_occupancy_bucket{class=%q,le=\"+Inf\"} %d\n", c, cm.batchPasses)
		fmt.Fprintf(sb, "chopperd_batch_occupancy_sum{class=%q} %d\n", c, cm.occSum)
		fmt.Fprintf(sb, "chopperd_batch_occupancy_count{class=%q} %d\n", c, cm.batchPasses)
	}
	fmt.Fprintf(sb, "chopperd_handler_panics_total %d\n", m.panics)
	fmt.Fprintf(sb, "chopperd_fallback_total{kind=\"json_decode\"} %d\n", m.decodeFallbacks)
}

// byClassQuantile reads the latency quantile; split out so render holds
// m.mu while the histogram takes its own lock (ordering: m.mu then h.mu,
// matching finished()'s release-before-observe).
func (cm *classMetrics) byClassQuantile(q float64) float64 {
	return cm.latency.quantileNs(q)
}

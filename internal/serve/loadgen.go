package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sort"
	"sync"
	"time"

	"chopper"
)

// LoadSource is one workload program the generator draws from.
type LoadSource struct {
	Name   string
	Source string
	// Inputs mirrors the program interface so run requests can build
	// operands without compiling first.
	Inputs []chopper.IOSpec
}

var ab8 = []chopper.IOSpec{{Name: "a", Width: 8}, {Name: "b", Width: 8}}

// loadSources is the generator's workload mix, small and deterministic:
// distinct enough to exercise cache misses, repeated enough to exercise
// hits and the single-flight path, and cheap enough that interactive
// deadlines hold on CI hardware.
var loadSources = []LoadSource{
	{Name: "add8", Source: "node main(a: u8, b: u8) returns (z: u8) let z = a + b; tel", Inputs: ab8},
	{Name: "sub8", Source: "node main(a: u8, b: u8) returns (z: u8) let z = a - b; tel", Inputs: ab8},
	{Name: "logic8", Source: "node main(a: u8, b: u8) returns (z: u8) let z = (a ^ b) & (a | b); tel", Inputs: ab8},
	{Name: "mac8", Source: "node main(a: u8, b: u8) returns (z: u8) let z = a * b + a; tel", Inputs: ab8},
}

// loadClassWeights draws a request's QoS class, 2:3:1
// interactive:batch:best-effort.
var loadClassWeights = [numClasses]int{Interactive: 2, Batch: 3, BestEffort: 1}

// loadMaxOutstanding caps the generator's own concurrency so an
// unresponsive server cannot leak unbounded goroutines. Open-loop dispatch
// is preserved until the cap binds.
const loadMaxOutstanding = 256

// LoadConfig configures a deterministic open-loop load run. The seed
// fixes the request sequence (class, tenant, source, kind, operands)
// exactly; only the interleaving of responses varies run to run.
type LoadConfig struct {
	Seed int64
	// QPS and Duration shape the steady phase.
	QPS      float64
	Duration time.Duration
	// OverloadQPS and OverloadDuration, when both positive, append a
	// forced-overload phase (typically several times the server's
	// capacity) to prove sheds stay deterministic 429s.
	OverloadQPS      float64
	OverloadDuration time.Duration
	// HomogeneousQPS and HomogeneousDuration, when both positive, append
	// two same-key run-only phases that isolate the coalescing win:
	// "homog-solo" (every request opts out with NoBatch) and
	// "homog-batched" (the identical schedule with batching allowed).
	// Point these at a server whose batch class has a BatchWindow.
	HomogeneousQPS      float64
	HomogeneousDuration time.Duration
	// Lanes is the SIMD width of run requests (default 8).
	Lanes int
	// Tenants spreads requests over this many tenant shards (default 4).
	Tenants int
}

func (cfg LoadConfig) normalize() LoadConfig {
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	if cfg.QPS <= 0 {
		cfg.QPS = 50
	}
	if cfg.Duration <= 0 {
		cfg.Duration = 2 * time.Second
	}
	if cfg.Lanes <= 0 {
		cfg.Lanes = 8
	}
	if cfg.Tenants <= 0 {
		cfg.Tenants = 4
	}
	return cfg
}

// LoadTarget dispatches one generated request and reports the HTTP
// status, the decoded success body when there is one, and any transport
// error.
type LoadTarget interface {
	Do(ctx context.Context, kind string, req *Request) (status int, resp *Response, err error)
}

// HandlerTarget drives an http.Handler in process — no sockets, used by
// tests and in-process benchmarking.
type HandlerTarget struct {
	Handler http.Handler
}

func (t HandlerTarget) Do(ctx context.Context, kind string, req *Request) (int, *Response, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return 0, nil, err
	}
	hr := httptest.NewRequest(http.MethodPost, "/v1/"+kind, bytes.NewReader(body)).WithContext(ctx)
	hr.Header.Set("Content-Type", "application/json")
	rec := httptest.NewRecorder()
	t.Handler.ServeHTTP(rec, hr)
	return decodeLoadResponse(rec.Code, rec.Body.Bytes())
}

// HTTPTarget drives a live chopperd over HTTP (cmd/chopperload).
type HTTPTarget struct {
	BaseURL string
	Client  *http.Client
}

func (t HTTPTarget) Do(ctx context.Context, kind string, req *Request) (int, *Response, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return 0, nil, err
	}
	hr, err := http.NewRequestWithContext(ctx, http.MethodPost, t.BaseURL+"/v1/"+kind, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	hr.Header.Set("Content-Type", "application/json")
	client := t.Client
	if client == nil {
		client = http.DefaultClient
	}
	hres, err := client.Do(hr)
	if err != nil {
		return 0, nil, err
	}
	defer hres.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(hres.Body); err != nil {
		return hres.StatusCode, nil, err
	}
	return decodeLoadResponse(hres.StatusCode, buf.Bytes())
}

func decodeLoadResponse(status int, body []byte) (int, *Response, error) {
	if status != http.StatusOK {
		return status, nil, nil
	}
	var resp Response
	if err := json.Unmarshal(body, &resp); err != nil {
		return status, nil, fmt.Errorf("bad 200 body: %w", err)
	}
	return status, &resp, nil
}

// LoadPhase is the measured outcome of one load phase.
type LoadPhase struct {
	Name        string  `json:"name"`
	OfferedQPS  float64 `json:"offered_qps"`
	AchievedQPS float64 `json:"achieved_qps"`
	// OKQPS is completed-successfully requests per second.
	OKQPS    float64 `json:"ok_qps"`
	Requests int     `json:"requests"`
	// Statuses counts responses by HTTP code ("0" = transport error).
	Statuses map[int]int `json:"statuses"`
	OK       int         `json:"ok"`
	Shed     int         `json:"shed"`
	// ServerErrors counts 5xx other than the 503 drain rejection.
	ServerErrors    int     `json:"server_errors"`
	TransportErrors int     `json:"transport_errors"`
	ShedRate        float64 `json:"shed_rate"`
	// CacheHitRate is (hits+shared)/completed-OK compiles.
	CacheHitRate float64 `json:"cache_hit_rate"`
	Degraded     int     `json:"degraded"`
	// Latency quantiles over all completed requests (ns), plus the
	// interactive-class p99 the QoS contract is judged on.
	P50Ns            float64 `json:"p50_ns"`
	P99Ns            float64 `json:"p99_ns"`
	P999Ns           float64 `json:"p999_ns"`
	InteractiveP99Ns float64 `json:"interactive_p99_ns"`
	DurationNs       int64   `json:"duration_ns"`
	// MeanBatchSize is the achieved members-per-coalesced-pass, estimated
	// from per-response batch_size: each response contributes
	// 1/batch_size of a pass, so requests / sum(1/batch_size) is the
	// pass-weighted mean. 0 when no response reported a batch size.
	MeanBatchSize float64 `json:"mean_batch_size,omitempty"`
	// ByClass breaks latency down per QoS class.
	ByClass map[string]ClassLatency `json:"by_class,omitempty"`
}

// ClassLatency is one QoS class's latency summary within a phase.
type ClassLatency struct {
	Requests int     `json:"requests"`
	P50Ns    float64 `json:"p50_ns"`
	P99Ns    float64 `json:"p99_ns"`
}

// LoadReport is the full run record.
type LoadReport struct {
	Seed   int64       `json:"seed"`
	Phases []LoadPhase `json:"phases"`
}

// Phase returns the named phase, or nil.
func (r *LoadReport) Phase(name string) *LoadPhase {
	for i := range r.Phases {
		if r.Phases[i].Name == name {
			return &r.Phases[i]
		}
	}
	return nil
}

// genReq is one pre-generated request (built on the scheduler goroutine
// so the seeded rng is never shared).
type genReq struct {
	kind string
	req  *Request
}

// generate draws the next request from the seeded schedule. heavy mode
// (the forced-overload phase) draws per-request-unique 16-bit multiply
// programs instead of the small cached mix: every compile is a genuine
// multi-millisecond pipeline run, so offered load translates into real
// saturation instead of being absorbed by microsecond cache hits.
func generate(rng *rand.Rand, cfg LoadConfig, heavy bool) genReq {
	// Class by weight.
	total := 0
	for _, w := range loadClassWeights {
		total += w
	}
	pick := rng.Intn(total)
	class := Batch
	for c := Class(0); c < numClasses; c++ {
		if pick < loadClassWeights[c] {
			class = c
			break
		}
		pick -= loadClassWeights[c]
	}
	if heavy {
		req := &Request{
			Tenant: fmt.Sprintf("tenant-%d", rng.Intn(cfg.Tenants)),
			Class:  class.String(),
			Source: fmt.Sprintf("node main(a: u16, b: u16) returns (z: u16) let z = a * b + %d:u16; tel", rng.Intn(1<<16)),
		}
		kind := "compile"
		if rng.Intn(4) == 0 {
			kind = "verify"
			req.Trials = 4
			req.Seed = rng.Int63n(1 << 30)
		}
		return genReq{kind: kind, req: req}
	}
	src := loadSources[rng.Intn(len(loadSources))]
	req := &Request{
		Tenant: fmt.Sprintf("tenant-%d", rng.Intn(cfg.Tenants)),
		Class:  class.String(),
		Source: src.Source,
	}
	// Kind mix: compile 60%, run 30%, verify 10%.
	kind := "compile"
	switch k := rng.Intn(10); {
	case k < 3:
		kind = "run"
		req.Lanes = cfg.Lanes
		req.Inputs = make(map[string][]uint64, len(src.Inputs))
		for _, in := range src.Inputs {
			vals := make([]uint64, cfg.Lanes)
			mask := uint64(1)<<uint(in.Width) - 1
			for i := range vals {
				vals[i] = rng.Uint64() & mask
			}
			req.Inputs[in.Name] = vals
		}
	case k < 4:
		kind = "verify"
		req.Trials = 2
		req.Seed = rng.Int63n(1 << 30)
	}
	return genReq{kind: kind, req: req}
}

// homogSource is the homogeneous phase's program: a 16-bit multiply-
// accumulate whose simulated device pass is long enough that a
// saturated solo path queues and sheds — exactly the regime coalescing
// exists for.
var homogSource = LoadSource{
	Name:   "mac16",
	Source: "node main(a: u16, b: u16) returns (z: u16) let z = a * b + a; tel",
	Inputs: []chopper.IOSpec{{Name: "a", Width: 16}, {Name: "b", Width: 16}},
}

// generateHomogeneous draws the same-key phase's schedule: one source,
// one tenant, batch class, run kind — every request shares a batch
// compatibility key, so the achieved batch size is limited only by the
// arrival rate and the window.
func generateHomogeneous(rng *rand.Rand, cfg LoadConfig, noBatch bool) genReq {
	src := homogSource
	req := &Request{
		Tenant:  "tenant-0",
		Class:   Batch.String(),
		Source:  src.Source,
		NoBatch: noBatch,
		Lanes:   cfg.Lanes,
		Inputs:  make(map[string][]uint64, len(src.Inputs)),
	}
	for _, in := range src.Inputs {
		vals := make([]uint64, cfg.Lanes)
		mask := uint64(1)<<uint(in.Width) - 1
		for i := range vals {
			vals[i] = rng.Uint64() & mask
		}
		req.Inputs[in.Name] = vals
	}
	return genReq{kind: "run", req: req}
}

// RunLoad drives target with the configured open-loop schedule: the
// steady phase, then (when configured) the forced-overload phase and
// the homogeneous solo/batched pair.
// ctx cancellation stops scheduling early; in-flight requests are always
// awaited before the report is built.
func RunLoad(ctx context.Context, target LoadTarget, cfg LoadConfig) (*LoadReport, error) {
	cfg = cfg.normalize()
	rng := rand.New(rand.NewSource(cfg.Seed))
	report := &LoadReport{Seed: cfg.Seed}
	report.Phases = append(report.Phases, runLoadPhase(ctx, target, cfg, rng, "steady", cfg.QPS, cfg.Duration,
		func(r *rand.Rand) genReq { return generate(r, cfg, false) }))
	if cfg.OverloadQPS > 0 && cfg.OverloadDuration > 0 {
		report.Phases = append(report.Phases,
			runLoadPhase(ctx, target, cfg, rng, "overload", cfg.OverloadQPS, cfg.OverloadDuration,
				func(r *rand.Rand) genReq { return generate(r, cfg, true) }))
	}
	if cfg.HomogeneousQPS > 0 && cfg.HomogeneousDuration > 0 {
		// Both phases replay the identical schedule from the same derived
		// seed; only the NoBatch flag differs, so the solo-vs-batched
		// comparison isolates the coalescing win.
		for _, ph := range []struct {
			name    string
			noBatch bool
		}{{"homog-solo", true}, {"homog-batched", false}} {
			ph := ph
			hr := rand.New(rand.NewSource(cfg.Seed ^ 0x686f6d6f67)) // "homog"
			report.Phases = append(report.Phases,
				runLoadPhase(ctx, target, cfg, hr, ph.name, cfg.HomogeneousQPS, cfg.HomogeneousDuration,
					func(r *rand.Rand) genReq { return generateHomogeneous(r, cfg, ph.noBatch) }))
		}
	}
	return report, ctx.Err()
}

// loadCollector accumulates phase results across dispatch goroutines.
type loadCollector struct {
	mu          sync.Mutex
	statuses    map[int]int
	latencies   []float64
	classLat    map[string][]float64
	ok          int
	shed        int
	serverErr   int
	transport   int
	degraded    int
	cacheHits   int
	cacheSeen   int
	batchN      int
	batchInvSum float64
}

func (lc *loadCollector) record(class string, status int, resp *Response, err error, latNs float64) {
	lc.mu.Lock()
	defer lc.mu.Unlock()
	lc.statuses[status]++
	lc.latencies = append(lc.latencies, latNs)
	lc.classLat[class] = append(lc.classLat[class], latNs)
	switch {
	case err != nil && status == 0:
		lc.transport++
	case status == http.StatusOK:
		lc.ok++
		if resp != nil {
			lc.cacheSeen++
			if resp.Cache == "hit" || resp.Cache == "shared" {
				lc.cacheHits++
			}
			if resp.Degraded {
				lc.degraded++
			}
			if resp.BatchSize > 0 {
				lc.batchN++
				lc.batchInvSum += 1 / float64(resp.BatchSize)
			}
		}
	case status == http.StatusTooManyRequests:
		lc.shed++
	case status >= 500 && status != http.StatusServiceUnavailable:
		lc.serverErr++
	}
}

func runLoadPhase(ctx context.Context, target LoadTarget, cfg LoadConfig, rng *rand.Rand, name string, qps float64, dur time.Duration, gen func(*rand.Rand) genReq) LoadPhase {
	interval := time.Duration(float64(time.Second) / qps)
	if interval <= 0 {
		interval = time.Microsecond
	}
	n := int(dur / interval)
	if n < 1 {
		n = 1
	}
	lc := &loadCollector{statuses: make(map[int]int), classLat: make(map[string][]float64)}
	sem := make(chan struct{}, loadMaxOutstanding)
	var wg sync.WaitGroup
	start := time.Now()
	next := start
	sent := 0
	for i := 0; i < n && ctx.Err() == nil; i++ {
		g := gen(rng) // on the scheduler goroutine: rng is not shared
		if d := time.Until(next); d > 0 {
			time.Sleep(d)
		}
		next = next.Add(interval)
		sem <- struct{}{}
		sent++
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() { <-sem }()
			t0 := time.Now()
			status, resp, err := target.Do(ctx, g.kind, g.req)
			lc.record(g.req.Class, status, resp, err, float64(time.Since(t0).Nanoseconds()))
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)

	p := LoadPhase{
		Name:            name,
		OfferedQPS:      qps,
		Requests:        sent,
		Statuses:        lc.statuses,
		OK:              lc.ok,
		Shed:            lc.shed,
		ServerErrors:    lc.serverErr,
		TransportErrors: lc.transport,
		Degraded:        lc.degraded,
		DurationNs:      elapsed.Nanoseconds(),
	}
	if sec := elapsed.Seconds(); sec > 0 {
		p.AchievedQPS = float64(sent) / sec
		p.OKQPS = float64(lc.ok) / sec
	}
	if sent > 0 {
		p.ShedRate = float64(lc.shed) / float64(sent)
	}
	if lc.cacheSeen > 0 {
		p.CacheHitRate = float64(lc.cacheHits) / float64(lc.cacheSeen)
	}
	p.P50Ns = exactQuantile(lc.latencies, 0.5)
	p.P99Ns = exactQuantile(lc.latencies, 0.99)
	p.P999Ns = exactQuantile(lc.latencies, 0.999)
	if lc.batchN > 0 && lc.batchInvSum > 0 {
		p.MeanBatchSize = float64(lc.batchN) / lc.batchInvSum
	}
	if len(lc.classLat) > 0 {
		p.ByClass = make(map[string]ClassLatency, len(lc.classLat))
		for class, lat := range lc.classLat {
			p.ByClass[class] = ClassLatency{
				Requests: len(lat),
				P50Ns:    exactQuantile(lat, 0.5),
				P99Ns:    exactQuantile(lat, 0.99),
			}
		}
	}
	p.InteractiveP99Ns = exactQuantile(lc.classLat[Interactive.String()], 0.99)
	return p
}

// exactQuantile sorts in place and returns the ceil-rank q-quantile.
func exactQuantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	i := int(float64(len(xs))*q+0.5) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(xs) {
		i = len(xs) - 1
	}
	return xs[i]
}

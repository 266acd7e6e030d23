package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"time"

	"chopper"
	"chopper/internal/serve"
	"chopper/internal/workloads"
)

// The service workloads drive serve.New(cfg).Handler() in process: no
// sockets, one pre-marshalled body per request, the reply checked after
// the timed region so the check costs no measured time.

// serveSource is one program the service workloads send, with the
// benchmark's own reference kernel for it.
type serveSource struct {
	name  string
	src   string
	k     *chopper.Kernel // library compile, Ambit, OptFull: what the service must reproduce
	cases []*refCase      // operand sets run requests draw from
	facts simFacts        // of one checked pass
}

var tinySources = []struct{ name, src string }{
	{"add8", "node main(a: u8, b: u8) returns (z: u8) let z = a + b; tel"},
	{"sub8", "node main(a: u8, b: u8) returns (z: u8) let z = a - b; tel"},
	{"logic8", "node main(a: u8, b: u8) returns (z: u8) let z = (a ^ b) & (a | b); tel"},
	{"mac8", "node main(a: u8, b: u8) returns (z: u8) let z = a * b + a; tel"},
}

const mac16Source = "node main(a: u16, b: u16) returns (z: u16) let z = a * b + a; tel"

func newServeSource(e *env, name, src string, sets, lanes int) (*serveSource, error) {
	k, err := chopper.Compile(src, chopper.Options{Target: chopper.Ambit})
	if err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	s := &serveSource{name: name, src: src, k: k}
	for i := 0; i < sets; i++ {
		c := e.oracle.newCase(fmt.Sprintf("%s #%d", name, i), src, lanes)
		e.oracle.bind(c, k.Inputs)
		s.cases = append(s.cases, c)
	}
	return s, nil
}

// serveReq is one request of a service workload.
type serveReq struct {
	kind  string // compile, run, verify
	class serve.Class
	body  []byte

	// A run request of a known source answers to lanes [off, off+lanes)
	// of its reference case; src is nil for a per-request-unique source.
	src   *serveSource
	c     *refCase
	off   int
	lanes int
	// A unique source is z = (a ^ k) + b on u16, checked by arithmetic.
	uniqueK uint64
	a, b    []uint64
}

// reply is what one firing of a request came back with.
type reply struct {
	req     *serveReq
	start   time.Time
	elapsed time.Duration // inside the handler
	status  int
	body    []byte
}

// serveRun is a prepared service workload.
type serveRun struct {
	name    string
	e       *env
	srv     *serve.Server
	handler http.Handler
	sources []*serveSource
	warm    []*serveReq
	reqs    []*serveReq
	due     []time.Duration // open loop: due time of reqs[i]
	callers int             // closed loop: callers cycling over reqs

	mu  sync.Mutex
	log []reply // every firing of the timed region, checked after it
}

func (sr *serveRun) fingerprint() string {
	var fp []string
	for _, s := range sr.sources {
		fp = append(fp, fmt.Sprintf("%s=%d", s.name, len(s.k.Prog().Ops)))
	}
	return strings.Join(fp, ";")
}

func (sr *serveRun) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_ = sr.srv.Shutdown(ctx) // nothing is in flight; a timeout here changes no result
}

// fire sends one request into the handler.
func (sr *serveRun) fire(q *serveReq) reply {
	hr := httptest.NewRequest(http.MethodPost, "/v1/"+q.kind, bytes.NewReader(q.body))
	hr.Header.Set("Content-Type", "application/json")
	rec := httptest.NewRecorder()
	t0 := time.Now()
	sr.handler.ServeHTTP(rec, hr)
	return reply{req: q, start: t0, elapsed: time.Since(t0), status: rec.Code, body: rec.Body.Bytes()}
}

// fireLogged is fire inside the timed region: the reply is kept for the
// checks that follow the region, so they cost no measured time.
func (sr *serveRun) fireLogged(i int) {
	rp := sr.fire(sr.reqs[i])
	sr.mu.Lock()
	sr.log = append(sr.log, rp)
	sr.mu.Unlock()
}

// checkReply holds one reply to the reference: a 2xx with the right
// outputs, the reference kernel's size and simulated time, and no
// degradation.
func checkReply(rp *reply) (*serve.Response, error) {
	q := rp.req
	if rp.status != http.StatusOK {
		return nil, fmt.Errorf("%s: status %d: %s", q.kind, rp.status, bytes.TrimSpace(rp.body))
	}
	var resp serve.Response
	if err := json.Unmarshal(rp.body, &resp); err != nil {
		return nil, fmt.Errorf("%s: reply: %w", q.kind, err)
	}
	if resp.Degraded {
		return &resp, fmt.Errorf("%s: degraded: %s", q.kind, resp.DegradedReason)
	}
	if q.src != nil && resp.MicroOps != len(q.src.k.Prog().Ops) {
		return &resp, fmt.Errorf("%s %s: %d micro-ops, reference kernel has %d", q.kind, q.src.name, resp.MicroOps, len(q.src.k.Prog().Ops))
	}
	switch q.kind {
	case "run":
		if q.src == nil {
			z := resp.Outputs["z"]
			if len(z) != q.lanes {
				return &resp, fmt.Errorf("run unique: %d lanes, want %d", len(z), q.lanes)
			}
			for l := range z {
				if want := ((q.a[l] ^ q.uniqueK) + q.b[l]) & 0xffff; z[l] != want {
					return &resp, fmt.Errorf("run unique: lane %d: %#x, want %#x", l, z[l], want)
				}
			}
			return &resp, nil
		}
		if resp.TimeNs != q.src.facts.TimeNs {
			return &resp, fmt.Errorf("run %s: simulated %v ns, reference pass took %v", q.src.name, resp.TimeNs, q.src.facts.TimeNs)
		}
		if err := diffNarrow(resp.Outputs, q.c.want, q.off, q.lanes); err != nil {
			return &resp, fmt.Errorf("run %s: %w", q.src.name, err)
		}
	case "verify":
		if resp.VerifyOK == nil || !*resp.VerifyOK {
			return &resp, fmt.Errorf("verify: not ok: %s", resp.VerifyDetail)
		}
	}
	return &resp, nil
}

func (sr *serveRun) warmup() error {
	for _, q := range sr.warm {
		if rp := sr.fire(q); rp.status != http.StatusOK {
			return fmt.Errorf("warm-up %s: status %d: %s", q.kind, rp.status, bytes.TrimSpace(rp.body))
		}
	}
	return nil
}

// check establishes every operand set's reference from a pass of the
// benchmark's own kernel. The simulated totals are one pass of each
// source's kernel (simulated time does not depend on the lane count).
func (sr *serveRun) check() (simTotals, error) {
	var t simTotals
	var ks []*chopper.Kernel
	var cs []*refCase
	for _, s := range sr.sources {
		for _, c := range s.cases {
			ks, cs = append(ks, s.k), append(cs, c)
		}
	}
	if err := establishCases(sr.e.oracle, ks, cs); err != nil {
		return t, err
	}
	for _, s := range sr.sources {
		for i, c := range s.cases {
			res, err := checkKernel(s.k, c)
			if err != nil {
				return t, err
			}
			if i == 0 {
				s.facts = passFacts(s.k, res)
				t.add(len(s.k.Prog().Ops), s.facts)
			}
		}
	}
	return t, nil
}

func (sr *serveRun) measure(d time.Duration) *loopResult {
	r, _ := sr.run(d)
	return r
}

// run is the timed region plus the reply checks that follow it. It
// returns, per logged reply, the decoded response (nil for a non-2xx).
func (sr *serveRun) run(d time.Duration) (*loopResult, []*serve.Response) {
	r := &loopResult{extra: map[string]float64{}}
	sr.log = sr.log[:0]
	if sr.callers > 0 {
		r.latMs, r.done, r.wall = runCallers(sr.callers, len(sr.reqs), d, sr.fireLogged)
	} else {
		open := runOpen(sr.due, serveMaxOut, sr.fireLogged)
		r.wall = open.wall
		late := make([]float64, len(open.late))
		for i := range open.latency {
			r.latMs = append(r.latMs, float64(open.latency[i])/1e6)
			late[i] = float64(open.late[i]) / 1e6
		}
		r.extra["loadgen.late_ms_p95"] = percentile(late, 0.95)
	}
	r.extra["loadgen.sent"] = float64(len(sr.log))
	resps := make([]*serve.Response, len(sr.log))
	for i := range sr.log {
		resp, err := checkReply(&sr.log[i])
		if resps[i] = resp; err != nil {
			r.fail(err)
		}
	}
	return r, resps
}

// traced runs the same region (at most traceServeMax long) and derives
// the service-side per-layer metrics from reply fields, a /metrics scrape
// before and after, and Server.CacheStats.
func (sr *serveRun) traced(tr *tracer, d time.Duration) (map[string]float64, *loopResult, error) {
	tr.stamp(sr.name, 1)
	before, cache0 := sr.scrape(), sr.srv.CacheStats()
	r, resps := sr.run(d)
	after, cache1 := sr.scrape(), sr.srv.CacheStats()

	m := map[string]float64{}
	for k, v := range r.extra {
		m[k] = v
	}
	var handler, hitCompileUs, hitHandlerUs []float64
	var bytesIO, compileNs, handlerNs, shed, timeout, err5xx float64
	byKind := map[string][]float64{}
	byClass := map[serve.Class][]float64{}
	for i := range sr.log {
		rp := &sr.log[i]
		q := rp.req
		if i < maxServeSpans {
			tr.record("serve.handler", fmt.Sprintf("req%d/%s", i, q.kind), rp.start, rp.elapsed, float64(len(q.body)+len(rp.body)), "bytes")
		}
		ms := float64(rp.elapsed) / 1e6
		handler = append(handler, ms)
		byKind[q.kind] = append(byKind[q.kind], ms)
		byClass[q.class] = append(byClass[q.class], ms)
		bytesIO += float64(len(q.body) + len(rp.body))
		handlerNs += float64(rp.elapsed)
		switch {
		case rp.status == http.StatusTooManyRequests:
			shed++
		case rp.status == http.StatusRequestTimeout:
			timeout++
		case rp.status >= 500:
			err5xx++
		}
		if resp := resps[i]; resp != nil {
			compileNs += float64(resp.CompileNs)
			if q.kind == "compile" && resp.Cache == "hit" {
				hitCompileUs = append(hitCompileUs, float64(resp.CompileNs)/1e3)
				hitHandlerUs = append(hitHandlerUs, float64(rp.elapsed)/1e3)
			}
		}
	}
	ratio := func(num, den float64) float64 {
		if den == 0 {
			return 0
		}
		return num / den
	}
	m["serve.handler_ms_p50"] = median(handler)
	m["serve.handler_ms_p99"] = percentile(handler, 0.99)
	m["serve.req_ms_p99"] = percentile(r.latMs, 0.99)
	m["serve.compile_ms_p50"] = median(byKind["compile"])
	m["serve.run_ms_p50"] = median(byKind["run"])
	m["serve.verify_ms_p50"] = median(byKind["verify"])
	m["serve.interactive_ms_p95"] = percentile(byClass[serve.Interactive], 0.95)
	m["serve.batch_ms_p95"] = percentile(byClass[serve.Batch], 0.95)
	m["serve.besteffort_ms_p95"] = percentile(byClass[serve.BestEffort], 0.95)
	m["serve.shed"] = shed
	m["serve.timeout_408"] = timeout
	m["serve.err_5xx"] = err5xx
	m["serve.json_kb_per_req"] = ratio(bytesIO, float64(len(sr.log))) / 1024
	m["serve.compile_ns_share"] = ratio(compileNs, handlerNs)
	// A warm-hit compile request is the service with its work removed:
	// what the handler spends beyond the cache lookup is its overhead.
	m["kcache.hit_us"] = median(hitCompileUs)
	m["serve.overhead_us"] = median(hitHandlerUs) - median(hitCompileUs)
	passes := after["chopperd_batch_passes_total"] - before["chopperd_batch_passes_total"]
	m["serve.batch_passes"] = passes
	m["serve.batch_mean_size"] = ratio(after["chopperd_batch_occupancy_sum"]-before["chopperd_batch_occupancy_sum"], passes)
	lookups := float64(cache1.Hits-cache0.Hits) + float64(cache1.Misses-cache0.Misses) + float64(cache1.Dedups-cache0.Dedups)
	m["kcache.hit_share"] = ratio(float64(cache1.Hits-cache0.Hits), lookups)
	m["kcache.dedup_share"] = ratio(float64(cache1.Dedups-cache0.Dedups), lookups)
	return m, r, nil
}

// scrape reads /metrics and sums every series of a family over its
// labels.
func (sr *serveRun) scrape() map[string]float64 {
	rec := httptest.NewRecorder()
	sr.handler.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	out := map[string]float64{}
	for _, line := range strings.Split(rec.Body.String(), "\n") {
		name, val, ok := strings.Cut(line, " ")
		if !ok {
			continue
		}
		v, err := strconv.ParseFloat(val, 64)
		if err != nil {
			continue
		}
		family, _, _ := strings.Cut(name, "{")
		out[family] += v
	}
	return out
}

// The request mix of serve_mixed is a fixed deck, not independent draws:
// request j of the deck takes its kind, source, class and tenant from the
// digits of j in a mixed-radix count, so every run sends the same multiset
// of requests (kinds compile 30 / run 60 / verify 10 %, classes 2:3:1,
// sources and tenants evenly, every serveUniqueEvery-th a unique source)
// and a seed only decides which request meets which arrival time and which
// operands it carries. With independent draws the share of slow requests
// differed between seeds by more than any change worth measuring.
var (
	serveKindDeck  = []string{"compile", "run", "run", "compile", "run", "run", "verify", "compile", "run", "run"}
	serveClassDeck = []serve.Class{serve.Interactive, serve.Batch, serve.Interactive, serve.Batch, serve.BestEffort, serve.Batch}
)

// prepareServeMixed: the open-loop mixed-traffic workload.
func prepareServeMixed(e *env) (prepared, error) {
	sr := &serveRun{name: "serve_mixed", e: e, srv: serve.New(serveConfig(false))}
	sr.handler = sr.srv.Handler()
	for _, t := range tinySources {
		s, err := newServeSource(e, t.name, t.src, serveOperands, serveLanes)
		if err != nil {
			return nil, err
		}
		sr.sources = append(sr.sources, s)
	}
	for _, name := range paperKernels {
		spec, ok := workloads.Get(name)
		if !ok {
			return nil, fmt.Errorf("unknown workload %q", name)
		}
		s, err := newServeSource(e, name, spec.Src, serveOperands, serveLanes)
		if err != nil {
			return nil, err
		}
		sr.sources = append(sr.sources, s)
	}

	bodies := map[string][]byte{} // each distinct request is marshalled once
	build := func(kind string, class serve.Class, tenant int, s *serveSource, set int, seed int64) (*serveReq, error) {
		req := &serve.Request{Tenant: fmt.Sprintf("tenant-%d", tenant), Class: class.String(), Source: s.src}
		switch kind {
		case "run":
			req.Lanes = serveLanes
			req.Inputs = narrowSlice(s.cases[set].in, 0, serveLanes)
		case "verify":
			req.Trials, req.Seed = 2, seed
		}
		key := fmt.Sprintf("%s/%d/%d/%s/%d/%d", kind, class, tenant, s.name, set, seed)
		body, ok := bodies[key]
		if !ok {
			var err error
			if body, err = json.Marshal(req); err != nil {
				return nil, err
			}
			bodies[key] = body
		}
		return &serveReq{kind: kind, class: class, body: body, src: s, c: s.cases[set], lanes: serveLanes}, nil
	}

	// Warm-up: every (tenant, source) pair compiles and runs once, so the
	// timed region's only misses are its unique sources.
	for tn := 0; tn < serveTenants; tn++ {
		for _, s := range sr.sources {
			for _, kind := range []string{"compile", "run"} {
				r, err := build(kind, serve.Batch, tn, s, 0, 0)
				if err != nil {
					return nil, err
				}
				sr.warm = append(sr.warm, r)
			}
		}
	}

	sr.due = genSchedule(streamRand(e.seed, "serve_mixed schedule"), serveRate, e.duration)
	rng := streamRand(e.seed, "serve_mixed requests")
	for _, j := range rng.Perm(len(sr.due)) {
		digit := j
		next := func(radix int) int {
			d := digit % radix
			digit /= radix
			return d
		}
		kind := serveKindDeck[next(len(serveKindDeck))]
		s := sr.sources[next(len(sr.sources))]
		class := serveClassDeck[next(len(serveClassDeck))]
		tenant := next(serveTenants)
		verifySeed := int64(1 + j%4)
		if j%serveUniqueEvery == serveUniqueEvery-1 {
			k := uint64(1 + j/serveUniqueEvery)
			req := &serve.Request{
				Tenant: fmt.Sprintf("tenant-%d", tenant), Class: class.String(),
				Source: fmt.Sprintf("node main(a: u16, b: u16) returns (z: u16) let z = (a ^ %d:u16) + b; tel", k),
			}
			q := &serveReq{kind: kind, class: class, uniqueK: k, lanes: serveLanes}
			switch kind {
			case "run":
				in := genWide(rng, []chopper.IOSpec{{Name: "a", Width: 16}, {Name: "b", Width: 16}}, serveLanes)
				req.Lanes, req.Inputs = serveLanes, narrowSlice(in, 0, serveLanes)
				q.a, q.b = req.Inputs["a"], req.Inputs["b"]
			case "verify":
				req.Trials, req.Seed = 2, verifySeed
			}
			var err error
			if q.body, err = json.Marshal(req); err != nil {
				return nil, err
			}
			sr.reqs = append(sr.reqs, q)
			continue
		}
		q, err := build(kind, class, tenant, s, j%serveOperands, verifySeed)
		if err != nil {
			return nil, err
		}
		sr.reqs = append(sr.reqs, q)
	}
	return sr, nil
}

// prepareServeHotKey: the closed-loop identical-key workload.
func prepareServeHotKey(e *env) (prepared, error) {
	sr := &serveRun{name: "serve_hot_key", e: e, srv: serve.New(serveConfig(true)), callers: hotCallers}
	sr.handler = sr.srv.Handler()
	// One reference case covers the cycle: body j carries lanes
	// [j*hotLanes, (j+1)*hotLanes) of it, so every request has fresh
	// operands and all share one compatibility key.
	s, err := newServeSource(e, "mac16", mac16Source, 1, hotCycle*hotLanes)
	if err != nil {
		return nil, err
	}
	sr.sources = []*serveSource{s}
	for j := 0; j < hotCycle; j++ {
		body, err := json.Marshal(&serve.Request{
			Tenant: "tenant-0", Class: serve.Batch.String(), Source: mac16Source,
			Lanes: hotLanes, Inputs: narrowSlice(s.cases[0].in, j*hotLanes, (j+1)*hotLanes),
		})
		if err != nil {
			return nil, err
		}
		sr.reqs = append(sr.reqs, &serveReq{kind: "run", class: serve.Batch, body: body, src: s, c: s.cases[0], off: j * hotLanes, lanes: hotLanes})
	}
	sr.warm = sr.reqs[:1]
	return sr, nil
}

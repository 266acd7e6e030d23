package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"

	"chopper"
)

const (
	addSrc = "node main(a: u8, b: u8) returns (z: u8) let z = a + b; tel"
	mulSrc = "node main(a: u16, b: u16) returns (z: u16) let z = a * b; tel"
)

// post sends one request through the handler in process and decodes the
// body into out (which may be *Response or *ErrorResponse).
func post(t *testing.T, h http.Handler, kind string, req *Request, out any) int {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	hr := httptest.NewRequest(http.MethodPost, "/v1/"+kind, bytes.NewReader(body))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, hr)
	if out != nil {
		if err := json.Unmarshal(rec.Body.Bytes(), out); err != nil {
			t.Fatalf("%s status %d: undecodable body %q: %v", kind, rec.Code, rec.Body.String(), err)
		}
	}
	return rec.Code
}

func get(t *testing.T, h http.Handler, path string) (int, string) {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
	return rec.Code, rec.Body.String()
}

func TestCompileEndpoint(t *testing.T) {
	s := New(Config{})
	h := s.Handler()
	var resp Response
	if code := post(t, h, "compile", &Request{Tenant: "acme", Source: addSrc}, &resp); code != http.StatusOK {
		t.Fatalf("compile status %d: %+v", code, resp)
	}
	if resp.MicroOps == 0 || resp.Pipeline != "chopper" || resp.Cache != "miss" {
		t.Fatalf("first compile response %+v", resp)
	}
	if resp.Class != "batch" {
		t.Fatalf("default class %q, want batch", resp.Class)
	}
	// Same tenant, same source: cache hit from the tenant's shard.
	if post(t, h, "compile", &Request{Tenant: "acme", Source: addSrc}, &resp); resp.Cache != "hit" {
		t.Fatalf("repeat compile cache %q, want hit", resp.Cache)
	}
	// Different tenant: isolated shard, so a miss.
	if post(t, h, "compile", &Request{Tenant: "rival", Source: addSrc}, &resp); resp.Cache != "miss" {
		t.Fatalf("other tenant's compile cache %q, want miss (shards must be isolated)", resp.Cache)
	}
}

func TestRunEndpoint(t *testing.T) {
	s := New(Config{})
	req := &Request{
		Source: addSrc,
		Lanes:  4,
		Inputs: map[string][]uint64{
			"a": {1, 2, 250, 255},
			"b": {2, 3, 10, 1},
		},
	}
	var resp Response
	if code := post(t, s.Handler(), "run", req, &resp); code != http.StatusOK {
		t.Fatalf("run status %d: %+v", code, resp)
	}
	want := []uint64{3, 5, 4, 0} // mod 256
	got := resp.Outputs["z"]
	if len(got) != len(want) {
		t.Fatalf("outputs %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("lane %d: got %d, want %d (outputs %v)", i, got[i], want[i], got)
		}
	}
	if resp.TimeNs <= 0 {
		t.Fatal("run reported no simulated time")
	}
}

func TestVerifyEndpoint(t *testing.T) {
	s := New(Config{})
	var resp Response
	if code := post(t, s.Handler(), "verify", &Request{Source: addSrc, Trials: 2, Seed: 7}, &resp); code != http.StatusOK {
		t.Fatalf("verify status %d: %+v", code, resp)
	}
	if resp.VerifyOK == nil || !*resp.VerifyOK || resp.Trials != 2 {
		t.Fatalf("verify response %+v", resp)
	}
}

// TestErrorStatusContract pins the wire contract end to end: each
// failure family produces its documented HTTP status and a stable
// error_class string — the same classification chopper.ErrorClass gives
// the CLI.
func TestErrorStatusContract(t *testing.T) {
	small := DefaultClassConfig(BestEffort)
	small.Budget = chopper.Budget{MaxNetGates: 4}
	cfg := Config{}
	cfg.Classes[BestEffort] = small
	s := New(cfg)
	h := s.Handler()

	cases := []struct {
		name   string
		req    *Request
		status int
		class  string
	}{
		{"parse", &Request{Source: "not a program"}, http.StatusBadRequest, "parse"},
		{"typecheck", &Request{Source: "node main(a: u8) returns (z: u16) let z = a; tel"}, http.StatusBadRequest, "typecheck"},
		{"bad target", &Request{Source: addSrc, Target: "hbm"}, http.StatusBadRequest, "options"},
		{"bad opt", &Request{Source: addSrc, Opt: "turbo"}, http.StatusBadRequest, "options"},
		{"bad class", &Request{Source: addSrc, Class: "platinum"}, http.StatusBadRequest, "options"},
		{"empty source", &Request{}, http.StatusBadRequest, "options"},
		{"bad lanes", &Request{Source: addSrc, Lanes: -1}, http.StatusBadRequest, "options"},
		{"budget", &Request{Source: mulSrc, Class: "best-effort"}, http.StatusRequestEntityTooLarge, "budget"},
		{"missing input", &Request{Source: addSrc, Lanes: 2, Inputs: map[string][]uint64{"a": {1, 2}}}, http.StatusBadRequest, "options"},
	}
	for _, tc := range cases {
		var er ErrorResponse
		kind := "compile"
		if tc.req.Lanes != 0 || tc.req.Inputs != nil {
			kind = "run"
		}
		code := post(t, h, kind, tc.req, &er)
		if code != tc.status || er.ErrorClass != tc.class {
			t.Errorf("%s: status %d class %q, want %d %q (error %q)", tc.name, code, er.ErrorClass, tc.status, tc.class, er.Error)
		}
	}

	// Malformed JSON body.
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/compile", strings.NewReader("{nope")))
	if rec.Code != http.StatusBadRequest {
		t.Errorf("malformed body status %d, want 400", rec.Code)
	}
	// Wrong method.
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/compile", nil))
	if rec.Code != http.StatusMethodNotAllowed {
		t.Errorf("GET status %d, want 405", rec.Code)
	}
}

// TestStatusForClassTable pins the class -> status table against the
// documented contract (docs/SERVICE.md).
func TestStatusForClassTable(t *testing.T) {
	want := map[string]int{
		"options": 400, "parse": 400, "typecheck": 400, "normalize": 400, "codegen": 400,
		"deadline": 408, "canceled": 408,
		"budget": 413, "verify": 422, "shed": 429,
		"internal": 500, "unknown": 500, "": 500,
		"draining": 503,
	}
	for class, status := range want {
		if got := StatusForClass(class); got != status {
			t.Errorf("StatusForClass(%q) = %d, want %d", class, got, status)
		}
	}
}

func TestDeadlineClassifiesAs408(t *testing.T) {
	cc := DefaultClassConfig(Interactive)
	cc.Deadline = time.Nanosecond // expires before the compile starts
	cfg := Config{}
	cfg.Classes[Interactive] = cc
	s := New(cfg)
	var er ErrorResponse
	code := post(t, s.Handler(), "compile", &Request{Source: mulSrc, Class: "interactive"}, &er)
	if code != http.StatusRequestTimeout || er.ErrorClass != "deadline" {
		t.Fatalf("status %d class %q, want 408 deadline", code, er.ErrorClass)
	}
}

func TestHandlerPanicRecovery(t *testing.T) {
	s := New(Config{BreakerTripAfter: 1})
	s.testHookAdmitted = func(Class, string) { panic("injected handler bug") }
	var er ErrorResponse
	code := post(t, s.Handler(), "compile", &Request{Source: addSrc}, &er)
	if code != http.StatusInternalServerError || er.ErrorClass != "internal" {
		t.Fatalf("panicked handler: status %d class %q, want 500 internal", code, er.ErrorClass)
	}
	if s.inflight.Load() != 0 {
		t.Fatal("panicked handler leaked an inflight count")
	}
	// The admitted request is finished like any executed failure: its 500
	// is on the ledger beside its admission.
	_, body := get(t, s.Handler(), "/metrics")
	for _, series := range []string{
		`chopperd_admitted_total{class="batch"} 1`,
		`chopperd_requests_total{class="batch",code="500"} 1`,
		"chopperd_handler_panics_total 1",
	} {
		if !strings.Contains(body, series+"\n") {
			t.Errorf("/metrics after a handler panic missing %q\n%s", series, body)
		}
	}
	// The process survived; the next request works, one level down: the
	// tenant's breaker observed the panic as an internal failure.
	s.testHookAdmitted = nil
	var resp Response
	if code := post(t, s.Handler(), "compile", &Request{Source: addSrc}, &resp); code != http.StatusOK {
		t.Fatalf("request after panic: status %d", code)
	}
	if resp.BreakerLevel != 1 {
		t.Fatalf("breaker level %d after a panic at BreakerTripAfter 1, want 1", resp.BreakerLevel)
	}
}

// TestBreakerDegradesAndRecovers walks one tenant down the ladder with
// deterministic budget failures and back up with successes, while a
// second tenant stays untouched — failure isolation at the tenant
// boundary.
func TestBreakerDegradesAndRecovers(t *testing.T) {
	small := DefaultClassConfig(BestEffort)
	small.Budget = chopper.Budget{MaxNetGates: 4}
	cfg := Config{BreakerTripAfter: 2, BreakerRecoverAfter: 2}
	cfg.Classes[BestEffort] = small
	s := New(cfg)
	h := s.Handler()

	// Two budget failures trip tenant "hot" one level.
	for i := 0; i < 2; i++ {
		var er ErrorResponse
		if code := post(t, h, "compile", &Request{Tenant: "hot", Class: "best-effort", Source: mulSrc}, &er); code != http.StatusRequestEntityTooLarge {
			t.Fatalf("budget request %d: status %d (%+v)", i, code, er)
		}
	}
	var resp Response
	if code := post(t, h, "compile", &Request{Tenant: "hot", Source: addSrc}, &resp); code != http.StatusOK {
		t.Fatalf("degraded-tenant success: status %d", code)
	}
	if !resp.Degraded || resp.BreakerLevel != 1 || resp.EffectiveOpt != chopper.OptReuse.String() {
		t.Fatalf("degraded-tenant response %+v, want breaker level 1 capping opt to reuse", resp)
	}

	// The other tenant is unaffected.
	var other Response
	post(t, h, "compile", &Request{Tenant: "cold", Source: addSrc}, &other)
	if other.Degraded || other.BreakerLevel != 0 {
		t.Fatalf("unrelated tenant degraded: %+v", other)
	}

	// Two consecutive successes recover the level.
	post(t, h, "compile", &Request{Tenant: "hot", Source: addSrc}, &resp) // good #2 (the one above was #1)
	var after Response
	post(t, h, "compile", &Request{Tenant: "hot", Source: "node main(a: u8) returns (z: u8) let z = a ^ 3:u8; tel"}, &after)
	if after.Degraded || after.BreakerLevel != 0 {
		t.Fatalf("tenant did not recover after consecutive successes: %+v", after)
	}
}

// TestBreakerReachesBaseline drives a tenant to the ladder floor and
// checks it reroutes to the baseline pipeline instead of failing.
func TestBreakerReachesBaseline(t *testing.T) {
	b := newBreaker(1, 1) // every bad outcome steps a level
	for i := 0; i < breakerMaxLevel+3; i++ {
		b.observe(false, "budget")
	}
	opt, baseline, level := b.plan(chopper.OptFull)
	if !baseline || level != breakerMaxLevel || opt != chopper.OptBitslice {
		t.Fatalf("floor plan = (%v, %v, %d), want baseline at level %d", opt, baseline, level, breakerMaxLevel)
	}
	// Neutral outcomes (client errors, sheds) move nothing.
	b.observe(false, "parse")
	b.observe(false, "shed")
	if lvl, _ := b.state(); lvl != breakerMaxLevel {
		t.Fatalf("neutral outcomes moved the level to %d", lvl)
	}
	// Successes climb back to 0.
	for i := 0; i < breakerMaxLevel; i++ {
		b.observe(false, "")
	}
	if lvl, _ := b.state(); lvl != 0 {
		t.Fatalf("level %d after full recovery, want 0", lvl)
	}
}

func TestTenantOverflowShared(t *testing.T) {
	s := New(Config{MaxTenants: 2})
	h := s.Handler()
	for _, tn := range []string{"t1", "t2", "t3", "t4"} {
		var resp Response
		if code := post(t, h, "compile", &Request{Tenant: tn, Source: addSrc}, &resp); code != http.StatusOK {
			t.Fatalf("tenant %s: status %d", tn, code)
		}
	}
	s.mu.Lock()
	n := len(s.tenants)
	s.mu.Unlock()
	if n != 2 {
		t.Fatalf("tenant table grew to %d entries, want the bound 2", n)
	}
	if s.tenantFor("t3") != s.overflow || s.tenantFor("t4") != s.overflow {
		t.Fatal("overflow tenants did not share the overflow shard")
	}
	// Overflow tenants share one cache shard: t4 re-compiling t3's source
	// hits.
	var resp Response
	post(t, h, "compile", &Request{Tenant: "t9", Source: addSrc}, &resp)
	if resp.Cache != "hit" {
		t.Fatalf("overflow shard compile %q, want hit (t3 warmed it)", resp.Cache)
	}
}

func TestHealthAndMetricsEndpoints(t *testing.T) {
	s := New(Config{})
	h := s.Handler()
	if code, body := get(t, h, "/healthz"); code != http.StatusOK || !strings.Contains(body, "ok") {
		t.Fatalf("/healthz %d %q", code, body)
	}
	if code, _ := get(t, h, "/readyz"); code != http.StatusOK {
		t.Fatalf("/readyz %d before drain, want 200", code)
	}
	// Generate some traffic, then check the exposition contains the
	// advertised series.
	var resp Response
	post(t, h, "compile", &Request{Source: addSrc, Class: "interactive"}, &resp)
	post(t, h, "compile", &Request{Source: addSrc, Class: "interactive"}, &resp)
	code, body := get(t, h, "/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics %d", code)
	}
	for _, series := range []string{
		`chopperd_requests_total{class="interactive",code="200"} 2`,
		`chopperd_admitted_total{class="interactive"} 2`,
		`chopperd_latency_ns{class="interactive",quantile="0.99"}`,
		"chopperd_cache_hits_total 1",
		"chopperd_cache_misses_total 1",
		"chopperd_tenants 1",
		"chopperd_draining 0",
		"chopperd_handler_panics_total 0",
	} {
		if !strings.Contains(body, series) {
			t.Errorf("/metrics missing %q\n%s", series, body)
		}
	}
}

func TestAdmitterShedsDeterministically(t *testing.T) {
	a := newAdmitter(1, 1)
	ctx := context.Background()
	drain := make(chan struct{})
	if err := a.acquire(ctx, drain); err != nil {
		t.Fatal(err)
	}
	// Queue the one allowed waiter.
	queued := make(chan error, 1)
	go func() { queued <- a.acquire(ctx, drain) }()
	waitFor(t, func() bool { _, q := a.depths(); return q == 1 })
	// Third arrival: queue full, shed immediately.
	if err := a.acquire(ctx, drain); err != errShed {
		t.Fatalf("over-queue acquire returned %v, want errShed", err)
	}
	a.release()
	if err := <-queued; err != nil {
		t.Fatalf("queued acquire returned %v after a slot freed", err)
	}
	a.release()
}

// waitFor polls cond with a 5s timeout.
func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached within 5s")
		}
		runtime.Gosched()
		time.Sleep(time.Millisecond)
	}
}

func TestParseClass(t *testing.T) {
	for in, want := range map[string]Class{
		"": Batch, "batch": Batch, "interactive": Interactive,
		"best-effort": BestEffort, "BestEffort": BestEffort,
	} {
		got, err := ParseClass(in)
		if err != nil || got != want {
			t.Errorf("ParseClass(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
	if _, err := ParseClass("gold"); err == nil {
		t.Error("ParseClass accepted an unknown class")
	}
	for c := Class(0); c < numClasses; c++ {
		if rt, err := ParseClass(c.String()); err != nil || rt != c {
			t.Errorf("round trip %v failed: %v %v", c, rt, err)
		}
	}
}

func TestRetryAfterOnShedAndDrain(t *testing.T) {
	// Capacity 1/queue 0: a held request forces the next to shed.
	cc := DefaultClassConfig(Batch)
	cc.MaxInflight, cc.MaxQueue = 1, 0
	cfg := Config{}
	cfg.Classes[Batch] = cc
	s := New(cfg)
	h := s.Handler()

	admitted := make(chan struct{})
	release := make(chan struct{})
	s.testHookAdmitted = func(Class, string) {
		close(admitted)
		<-release
	}
	done := make(chan int, 1)
	go func() {
		rec := httptest.NewRecorder()
		body, _ := json.Marshal(&Request{Source: addSrc})
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/compile", bytes.NewReader(body)))
		done <- rec.Code
	}()
	<-admitted
	s.testHookAdmitted = nil

	rec := httptest.NewRecorder()
	body, _ := json.Marshal(&Request{Source: addSrc})
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/compile", bytes.NewReader(body)))
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("overloaded request status %d, want 429", rec.Code)
	}
	if rec.Header().Get("Retry-After") == "" {
		t.Fatal("shed response missing Retry-After")
	}
	var er ErrorResponse
	if json.Unmarshal(rec.Body.Bytes(), &er); er.ErrorClass != "shed" {
		t.Fatalf("shed error class %q", er.ErrorClass)
	}
	close(release)
	if code := <-done; code != http.StatusOK {
		t.Fatalf("held request finished with %d", code)
	}
}

func TestConfigDefaults(t *testing.T) {
	cfg := Config{}.normalize()
	for c := Class(0); c < numClasses; c++ {
		if cfg.Classes[c].MaxInflight < 1 {
			t.Errorf("class %v: MaxInflight %d", c, cfg.Classes[c].MaxInflight)
		}
		if cfg.Classes[c].Deadline <= 0 {
			t.Errorf("class %v: no deadline", c)
		}
		if cfg.Classes[c].Budget == (chopper.Budget{}) {
			t.Errorf("class %v: unlimited budget by default", c)
		}
	}
	if cfg.MaxTenants <= 0 || cfg.CacheEntries <= 0 || cfg.MaxBodyBytes <= 0 {
		t.Errorf("unbounded defaults: %+v", cfg)
	}
}

func ExampleStatusForClass() {
	fmt.Println(StatusForClass("budget"), StatusForClass("shed"), StatusForClass("draining"))
	// Output: 413 429 503
}

package serve

import (
	"context"
	"fmt"
	"math"
	"net/http"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"chopper/internal/dfg"
)

// batchedConfig returns a config with coalescing enabled on the Batch
// class: a window wide enough that concurrent test requests always meet
// inside it, sealed early by maxSize.
func batchedConfig(window time.Duration, maxSize int) Config {
	cfg := Config{}
	cc := DefaultClassConfig(Batch)
	cc.BatchWindow = window
	cc.MaxBatchSize = maxSize
	cfg.Classes[Batch] = cc
	return cfg
}

// postConcurrently sends every request at once and returns the per-call
// statuses and responses in request order.
func postConcurrently(t *testing.T, h http.Handler, kind string, reqs []*Request) ([]int, []Response) {
	t.Helper()
	codes := make([]int, len(reqs))
	resps := make([]Response, len(reqs))
	var wg sync.WaitGroup
	for i, r := range reqs {
		wg.Add(1)
		go func(i int, r *Request) {
			defer wg.Done()
			codes[i] = post(t, h, kind, r, &resps[i])
		}(i, r)
	}
	wg.Wait()
	return codes, resps
}

// TestBatchedRunByteIdentity pins the tentpole contract on the wire: a
// full coalesced pass returns, member by member, exactly the outputs
// and simulated time the solo (NoBatch) path returns for the same
// operands — and reports the occupancy it ran at.
func TestBatchedRunByteIdentity(t *testing.T) {
	const size = 4
	s := New(batchedConfig(2*time.Second, size))
	h := s.Handler()

	lanes := []int{3, 64, 65, 16}
	reqs := make([]*Request, size)
	for i := range reqs {
		n := lanes[i]
		a := make([]uint64, n)
		b := make([]uint64, n)
		for l := 0; l < n; l++ {
			a[l] = uint64(i*31+l) & 0xFF
			b[l] = uint64(255 - l&0xFF)
		}
		reqs[i] = &Request{Source: addSrc, Lanes: n, Inputs: map[string][]uint64{"a": a, "b": b}}
	}
	codes, resps := postConcurrently(t, h, "run", reqs)
	for i, code := range codes {
		if code != http.StatusOK {
			t.Fatalf("member %d status %d: %+v", i, code, resps[i])
		}
		if resps[i].BatchSize != size {
			t.Errorf("member %d batch_size %d, want %d", i, resps[i].BatchSize, size)
		}
	}

	for i, r := range reqs {
		solo := *r
		solo.NoBatch = true
		var want Response
		if code := post(t, h, "run", &solo, &want); code != http.StatusOK {
			t.Fatalf("solo member %d status %d: %+v", i, code, want)
		}
		if want.BatchSize != 0 {
			t.Errorf("solo member %d reports batch_size %d, want absent", i, want.BatchSize)
		}
		if resps[i].TimeNs != want.TimeNs {
			t.Errorf("member %d TimeNs %v != solo %v", i, resps[i].TimeNs, want.TimeNs)
		}
		for name, wv := range want.Outputs {
			gv := resps[i].Outputs[name]
			if len(gv) != len(wv) {
				t.Fatalf("member %d output %q: %d lanes, want %d", i, name, len(gv), len(wv))
			}
			for l := range wv {
				if gv[l] != wv[l] {
					t.Errorf("member %d output %q lane %d: %d != solo %d", i, name, l, gv[l], wv[l])
				}
			}
		}
	}
}

// TestBatchedVerifyMatchesSolo: coalesced verify sweeps report the same
// verdicts and trial counts the solo path reports.
func TestBatchedVerifyMatchesSolo(t *testing.T) {
	const size = 3
	s := New(batchedConfig(2*time.Second, size))
	h := s.Handler()

	reqs := []*Request{
		{Source: addSrc, Trials: 2, Seed: 7},
		{Source: addSrc, Trials: 4, Seed: 11},
		{Source: addSrc, Trials: 1, Seed: 3},
	}
	codes, resps := postConcurrently(t, h, "verify", reqs)
	for i, code := range codes {
		if code != http.StatusOK {
			t.Fatalf("member %d status %d: %+v", i, code, resps[i])
		}
		if resps[i].BatchSize != size {
			t.Errorf("member %d batch_size %d, want %d", i, resps[i].BatchSize, size)
		}
		solo := *reqs[i]
		solo.NoBatch = true
		var want Response
		if code := post(t, h, "verify", &solo, &want); code != http.StatusOK {
			t.Fatalf("solo member %d status %d: %+v", i, code, want)
		}
		if resps[i].Trials != want.Trials {
			t.Errorf("member %d trials %d != solo %d", i, resps[i].Trials, want.Trials)
		}
		if resps[i].VerifyOK == nil || want.VerifyOK == nil || *resps[i].VerifyOK != *want.VerifyOK {
			t.Errorf("member %d verify_ok %v != solo %v", i, resps[i].VerifyOK, want.VerifyOK)
		}
		if resps[i].VerifyDetail != want.VerifyDetail {
			t.Errorf("member %d detail %q != solo %q", i, resps[i].VerifyDetail, want.VerifyDetail)
		}
	}
}

// TestBatchMetricsNames pins the /metrics names the batching layer
// exports — dashboards depend on them.
func TestBatchMetricsNames(t *testing.T) {
	s := New(batchedConfig(2*time.Second, 2))
	h := s.Handler()
	reqs := []*Request{
		{Source: addSrc, Lanes: 2, Inputs: map[string][]uint64{"a": {1, 2}, "b": {3, 4}}},
		{Source: addSrc, Lanes: 2, Inputs: map[string][]uint64{"a": {5, 6}, "b": {7, 8}}},
	}
	codes, _ := postConcurrently(t, h, "run", reqs)
	for i, code := range codes {
		if code != http.StatusOK {
			t.Fatalf("member %d status %d", i, code)
		}
	}
	_, body := get(t, h, "/metrics")
	for _, want := range []string{
		`chopperd_batch_passes_total{class="batch"} 1`,
		`chopperd_batch_requests_total{class="batch",mode="batched"} 2`,
		`chopperd_batch_requests_total{class="batch",mode="solo"} 0`,
		`chopperd_batch_occupancy_bucket{class="batch",le="2"} 1`,
		`chopperd_batch_occupancy_bucket{class="batch",le="64"} 1`,
		`chopperd_batch_occupancy_bucket{class="batch",le="+Inf"} 1`,
		`chopperd_batch_occupancy_sum{class="batch"} 2`,
		`chopperd_batch_occupancy_count{class="batch"} 1`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
}

// TestBatchWindowChargesDeadline: the batch window never extends a
// request past its class deadline — a member whose deadline expires
// inside an open window leaves with the standard 408, and the idle
// executor unwinds so the server still drains cleanly.
func TestBatchWindowChargesDeadline(t *testing.T) {
	cfg := Config{}
	cc := DefaultClassConfig(Batch)
	cc.Deadline = 60 * time.Millisecond
	cc.BatchWindow = 10 * time.Second // far beyond the deadline
	cc.MaxBatchSize = 8
	cfg.Classes[Batch] = cc
	s := New(cfg)
	h := s.Handler()

	start := time.Now()
	var er ErrorResponse
	code := post(t, h, "run", &Request{
		Source: addSrc, Lanes: 1,
		Inputs: map[string][]uint64{"a": {1}, "b": {2}},
	}, &er)
	waited := time.Since(start)
	if code != http.StatusRequestTimeout {
		t.Fatalf("status %d (%+v), want 408: the window must not outlive the deadline", code, er)
	}
	if er.ErrorClass != "deadline" {
		t.Errorf("error_class %q, want deadline", er.ErrorClass)
	}
	if waited >= cc.BatchWindow {
		t.Errorf("request held %v, longer than the batch window itself", waited)
	}

	// The abandoned batch must not pin its admission slot or inflight
	// count: a drain right after finishes promptly.
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown after window-deadline expiry: %v", err)
	}
}

// TestDrainFlushesOpenBatchWindow: BeginDrain flushes open batch
// windows — the waiting member gets its executed 200, not a 503, and
// the server then shuts down cleanly.
func TestDrainFlushesOpenBatchWindow(t *testing.T) {
	s := New(batchedConfig(10*time.Second, 8))
	h := s.Handler()

	type result struct {
		code int
		resp Response
	}
	done := make(chan result, 1)
	go func() {
		var resp Response
		code := post(t, h, "run", &Request{
			Source: addSrc, Lanes: 2,
			Inputs: map[string][]uint64{"a": {40, 1}, "b": {2, 2}},
		}, &resp)
		done <- result{code, resp}
	}()

	// Wait until the request is inside an open window.
	waitUntil := time.Now().Add(5 * time.Second)
	for {
		s.bat.mu.Lock()
		open := len(s.bat.open)
		s.bat.mu.Unlock()
		if open > 0 {
			break
		}
		if time.Now().After(waitUntil) {
			t.Fatal("request never opened a batch window")
		}
		time.Sleep(time.Millisecond)
	}

	s.BeginDrain()
	select {
	case r := <-done:
		if r.code != http.StatusOK {
			t.Fatalf("drained batch member status %d (%+v), want 200: drain must flush, not drop", r.code, r.resp)
		}
		if got := r.resp.Outputs["z"]; len(got) != 2 || got[0] != 42 {
			t.Fatalf("flushed member outputs %v", r.resp.Outputs)
		}
		if r.resp.BatchSize != 1 {
			t.Errorf("flushed member batch_size %d, want 1", r.resp.BatchSize)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("drain did not flush the open batch window")
	}

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown after flush: %v", err)
	}
}

// TestDeterminismBatchedServe: repeated coalesced passes over the same
// members produce byte-identical responses (CI runs TestDeterminism*
// under -race -cpu 1,4).
func TestDeterminismBatchedServe(t *testing.T) {
	const size = 3
	reqs := make([]*Request, size)
	for i := range reqs {
		n := []int{5, 64, 65}[i]
		a := make([]uint64, n)
		b := make([]uint64, n)
		for l := 0; l < n; l++ {
			a[l], b[l] = uint64(l*7+i), uint64(l^i)
		}
		reqs[i] = &Request{Source: addSrc, Lanes: n, Inputs: map[string][]uint64{"a": a, "b": b}}
	}

	var first []Response
	for rep := 0; rep < 3; rep++ {
		s := New(batchedConfig(2*time.Second, size))
		codes, resps := postConcurrently(t, s.Handler(), "run", reqs)
		for i, code := range codes {
			if code != http.StatusOK {
				t.Fatalf("rep %d member %d status %d", rep, i, code)
			}
		}
		if rep == 0 {
			first = resps
			continue
		}
		for i := range resps {
			if resps[i].TimeNs != first[i].TimeNs || resps[i].BatchSize != first[i].BatchSize {
				t.Fatalf("rep %d member %d: TimeNs/BatchSize drifted", rep, i)
			}
			if fmt.Sprint(resps[i].Outputs) != fmt.Sprint(first[i].Outputs) {
				t.Fatalf("rep %d member %d: outputs drifted", rep, i)
			}
		}
	}
}

// TestSoloIsAPassOfOne holds the solo path and a batched member to one
// behavior: every case goes through the server twice — opted out of
// coalescing, and into a batch window it then sits in alone — and must
// come back with the same status, error class and error text, or the same
// outputs, simulated time and verdict. Only batch_size may tell them apart.
func TestSoloIsAPassOfOne(t *testing.T) {
	s := New(batchedConfig(5*time.Millisecond, 4))
	h := s.Handler()

	// A kernel whose reference semantics disagree with its program: compile
	// it through the default tenant's shard, as a request would, and turn
	// the reference graph's add into a subtract before anything verifies.
	const subSrc = "node main(a: u8, b: u8) returns (z: u8) let z = a + b + 1; tel"
	cc := s.ClassConfig(Batch)
	tn := s.tenantFor("")
	plan, err := s.planRequest(&Request{Source: subSrc}, tn, cc)
	if err != nil {
		t.Fatal(err)
	}
	k, _, _, err := compileForPlan(context.Background(), plan, subSrc)
	if err != nil {
		t.Fatal(err)
	}
	g := *k.Graph
	g.Values = append([]dfg.Value(nil), g.Values...)
	for i := range g.Values {
		if g.Values[i].Kind == dfg.OpAdd {
			g.Values[i].Kind = dfg.OpSub
		}
	}
	k.Graph = &g

	two := []uint64{1, 2}
	cases := []struct {
		name, kind string
		req        Request
		status     int
	}{
		{"missing input", "run", Request{Source: addSrc, Lanes: 2, Inputs: map[string][]uint64{"a": two}}, 400},
		{"wrong value count", "run", Request{Source: addSrc, Lanes: 3, Inputs: map[string][]uint64{"a": two, "b": two}}, 400},
		{"65-bit input", "run", Request{Source: "node main(a: u65) returns (z: u8) let z = u8(a); tel", Lanes: 2, Inputs: map[string][]uint64{"a": two}}, 400},
		{"65-bit output", "run", Request{Source: "node main(a: u8) returns (z: u65) let z = u65(a); tel", Lanes: 2, Inputs: map[string][]uint64{"a": two}}, 400},
		{"run", "run", Request{Source: addSrc, Lanes: 2, Inputs: map[string][]uint64{"a": two, "b": {250, 255}}}, 200},
		{"default lanes", "run", Request{Source: addSrc, Inputs: map[string][]uint64{"a": make([]uint64, 16), "b": make([]uint64, 16)}}, 200},
		{"verify", "verify", Request{Source: addSrc, Trials: 2, Seed: 7}, 200},
		{"failing verify", "verify", Request{Source: subSrc}, 200},
	}
	type outcome struct {
		Status int
		ErrorResponse
		Outputs      map[string][]uint64 `json:"outputs"`
		TimeNs       float64             `json:"time_ns"`
		VerifyOK     *bool               `json:"verify_ok"`
		VerifyDetail string              `json:"verify_detail"`
		Trials       int                 `json:"trials"`
		BatchSize    int                 `json:"batch_size"`
	}
	for _, tc := range cases {
		var solo, batched outcome
		req := tc.req
		req.NoBatch = true
		solo.Status = post(t, h, tc.kind, &req, &solo)
		req.NoBatch = false
		batched.Status = post(t, h, tc.kind, &req, &batched)

		if solo.Status != tc.status {
			t.Errorf("%s: solo status %d (%s), want %d", tc.name, solo.Status, solo.Error, tc.status)
		}
		if tc.status == 200 && (solo.BatchSize != 0 || batched.BatchSize != 1) {
			t.Errorf("%s: batch_size solo %d, batched %d; want absent and 1", tc.name, solo.BatchSize, batched.BatchSize)
		}
		batched.BatchSize = solo.BatchSize
		if !reflect.DeepEqual(solo, batched) {
			t.Errorf("%s: solo and batched member differ:\n solo    %+v\n batched %+v", tc.name, solo, batched)
		}
		switch tc.name {
		case "failing verify":
			if solo.VerifyOK == nil || *solo.VerifyOK || !strings.Contains(solo.VerifyDetail, "reference says") {
				t.Errorf("failing verify: verdict %v, detail %q; want a reported mismatch", solo.VerifyOK, solo.VerifyDetail)
			}
		case "run":
			if !reflect.DeepEqual(solo.Outputs["z"], []uint64{251, 1}) {
				t.Errorf("run: outputs %v, want z = [251 1]", solo.Outputs)
			}
		}
	}
}

// TestBatchedRunIgnoresTrials: only a verify's `trials` is range-checked,
// so a run's is whatever the client sent and nothing on the way into a
// batch window may do work proportional to it (sizing the member's arena
// span from it once spun the handler, ahead of admission and out of the
// class deadline's reach).
func TestBatchedRunIgnoresTrials(t *testing.T) {
	h := New(batchedConfig(5*time.Millisecond, 4)).Handler()
	req := Request{Source: addSrc, Lanes: 2, Trials: math.MaxInt64,
		Inputs: map[string][]uint64{"a": {1, 2}, "b": {250, 255}}}

	var solo, batched Response
	done := make(chan [2]int, 1)
	go func() {
		noBatch := req
		noBatch.NoBatch = true
		done <- [2]int{post(t, h, "run", &noBatch, &solo), post(t, h, "run", &req, &batched)}
	}()
	select {
	case codes := <-done:
		if codes != [2]int{200, 200} {
			t.Fatalf("statuses %v, want 200 and 200", codes)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("a run with an enormous trials field did not return: something sized work from it")
	}
	if batched.BatchSize != 1 {
		t.Errorf("batch_size %d, want 1 (the request went through the window alone)", batched.BatchSize)
	}
	if !reflect.DeepEqual(solo.Outputs, batched.Outputs) || solo.TimeNs != batched.TimeNs {
		t.Errorf("solo and batched run differ: outputs %v / %v, time_ns %v / %v",
			solo.Outputs, batched.Outputs, solo.TimeNs, batched.TimeNs)
	}
}

// TestBatchKeyCoversItsParts: the struct that indexes the open batches is
// the compatibility key, so two requests differing in any one of its parts
// never share a pass. The walk is over the struct's own fields: a part
// added to batchKey needs a row here before this test passes again.
func TestBatchKeyCoversItsParts(t *testing.T) {
	s := New(batchedConfig(150*time.Millisecond, 2))
	type in struct {
		kind  string
		class Class
		req   Request
	}
	keyFor := func(v in) batchKey {
		t.Helper()
		p, err := s.planRequest(&v.req, s.tenantFor(v.req.Tenant), s.cfg.Classes[v.class])
		if err != nil {
			t.Fatal(err)
		}
		return keyOf(v.kind, v.class, p, &v.req)
	}
	base := in{kind: "run", class: Batch, req: Request{Source: addSrc}}
	change := map[string]func(*in){
		"kind":     func(v *in) { v.kind = "verify" },
		"class":    func(v *in) { v.class = Interactive },
		"target":   func(v *in) { v.req.Target = "simdram" },
		"effOpt":   func(v *in) { v.req.Opt = "reuse" },
		"baseline": func(v *in) { v.req.Baseline = true },
		"harden":   func(v *in) { v.req.Harden = true },
		"entry":    func(v *in) { v.req.Entry = "main" },
		"source":   func(v *in) { v.req.Source = addSrc + " " },
	}
	want := reflect.ValueOf(keyFor(base))
	for i := 0; i < want.NumField(); i++ {
		name := want.Type().Field(i).Name
		f, ok := change[name]
		if !ok {
			t.Errorf("batchKey.%s: no request in this test differs in it alone", name)
			continue
		}
		v := base
		f(&v)
		got := reflect.ValueOf(keyFor(v))
		for j := 0; j < got.NumField(); j++ {
			if same := got.Field(j).Equal(want.Field(j)); same == (i == j) {
				t.Errorf("changing %s alone: key part %s equal = %v", name, got.Type().Field(j).Name, same)
			}
		}
	}
	if keyFor(base) != keyFor(in{kind: "run", class: Batch, req: Request{Source: addSrc, Tenant: "other", Lanes: 9, Seed: 4}}) {
		t.Error("tenant, lanes or seed split the key; identical programs from different tenants must coalesce")
	}

	// On the wire: a pair differing in one part runs as two passes of one,
	// an identical pair as one pass of two.
	h := s.Handler()
	ab := map[string][]uint64{"a": {1, 2}, "b": {3, 4}}
	pair := func(name string, other Request) {
		t.Helper()
		one := Request{Source: addSrc, Lanes: 2, Inputs: ab}
		other.Lanes, other.Inputs = 2, ab
		codes, resps := postConcurrently(t, h, "run", []*Request{&one, &other})
		wantSize := 1
		if name == "" {
			wantSize = 2
		}
		for i := range resps {
			if codes[i] != http.StatusOK || resps[i].BatchSize != wantSize {
				t.Errorf("pair differing in %q: member %d status %d batch_size %d, want 200 and %d", name, i, codes[i], resps[i].BatchSize, wantSize)
			}
		}
	}
	pair("", Request{Source: addSrc})
	pair("target", Request{Source: addSrc, Target: "simdram"})
	pair("opt", Request{Source: addSrc, Opt: "reuse"})
	pair("baseline", Request{Source: addSrc, Baseline: true})
	pair("harden", Request{Source: addSrc, Harden: true})
	pair("entry", Request{Source: addSrc, Entry: "main"})
	pair("source", Request{Source: addSrc + " "})
}

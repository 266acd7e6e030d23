package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"runtime"
	"testing"
	"time"
)

// settleGoroutines polls until the goroutine count returns to within
// slack of before (handler goroutines need a moment to observe channel
// closes and exit) and returns the final count.
func settleGoroutines(t *testing.T, before, slack int) int {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	n := runtime.NumGoroutine()
	for n > before+slack && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
		n = runtime.NumGoroutine()
	}
	return n
}

func postAsync(h http.Handler, kind string, req *Request) chan *httptest.ResponseRecorder {
	out := make(chan *httptest.ResponseRecorder, 1)
	body, _ := json.Marshal(req)
	go func() {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/"+kind, bytes.NewReader(body)))
		out <- rec
	}()
	return out
}

// TestGracefulDrain drives the full drain sequence deterministically:
//
//  1. a held request is in flight, a second request is queued
//  2. SetNotReady flips /readyz to 503 while both keep their fates open
//  3. BeginDrain releases the queued request with 503-draining and
//     rejects new arrivals with 503, all before the in-flight request
//     is touched
//  4. the in-flight request completes with 200
//  5. Shutdown returns cleanly and no goroutines leak
func TestGracefulDrain(t *testing.T) {
	before := runtime.NumGoroutine()

	cc := DefaultClassConfig(Batch)
	cc.MaxInflight, cc.MaxQueue = 1, 4
	cfg := Config{}
	cfg.Classes[Batch] = cc
	s := New(cfg)
	h := s.Handler()

	admitted := make(chan struct{})
	release := make(chan struct{})
	s.testHookAdmitted = func(Class, string) {
		admitted <- struct{}{}
		<-release
	}

	// 1: in-flight request holds the only batch slot; a second queues.
	inflight := postAsync(h, "compile", &Request{Source: addSrc})
	<-admitted
	queued := postAsync(h, "compile", &Request{Source: mulSrc})
	waitFor(t, func() bool { _, q := s.adm[Batch].depths(); return q == 1 })

	// 2: readyz flips before any request is rejected or canceled.
	if code, _ := get(t, h, "/readyz"); code != http.StatusOK {
		t.Fatalf("/readyz %d before drain, want 200", code)
	}
	s.SetNotReady()
	if code, _ := get(t, h, "/readyz"); code != http.StatusServiceUnavailable {
		t.Fatalf("/readyz %d after SetNotReady, want 503", code)
	}
	select {
	case rec := <-queued:
		t.Fatalf("queued request resolved (%d) before BeginDrain", rec.Code)
	default:
	}

	// 3: drain releases the queued request with 503 and rejects new work.
	s.BeginDrain()
	rec := <-queued
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("queued request drained with %d, want 503", rec.Code)
	}
	var er ErrorResponse
	if json.Unmarshal(rec.Body.Bytes(), &er); er.ErrorClass != "draining" {
		t.Fatalf("queued request error class %q, want draining", er.ErrorClass)
	}
	if rec.Header().Get("Retry-After") == "" {
		t.Fatal("drain rejection missing Retry-After")
	}
	if rec = <-postAsync(h, "compile", &Request{Source: addSrc}); rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("new arrival during drain got %d, want 503", rec.Code)
	}

	// 4: the in-flight request is unharmed and completes.
	close(release)
	if rec = <-inflight; rec.Code != http.StatusOK {
		t.Fatalf("in-flight request finished with %d during drain, want 200", rec.Code)
	}

	// 5: clean shutdown, no leaked goroutines.
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	if after := settleGoroutines(t, before, 2); after > before+2 {
		t.Fatalf("goroutine leak across drain: %d before, %d after", before, after)
	}
}

// TestShutdownHardCancelsStuckWork proves the drain deadline is a real
// bound: an in-flight request that never finishes on its own is
// canceled through the request context and Shutdown returns the
// deadline error instead of hanging.
func TestShutdownHardCancelsStuckWork(t *testing.T) {
	before := runtime.NumGoroutine()
	s := New(Config{})
	h := s.Handler()

	admitted := make(chan struct{})
	s.testHookAdmitted = func(Class, string) { close(admitted) }

	// A compile big enough to hit many guard checkpoints; the hard cancel
	// stops it long before it completes on a deadline this tight.
	inflight := postAsync(h, "verify", &Request{Source: mulSrc, Trials: 64, Class: "batch"})
	<-admitted

	s.BeginDrain()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	err := s.Shutdown(ctx)
	rec := <-inflight
	if err == nil {
		// The verify genuinely finished inside 10ms; the drain was clean
		// and nothing was canceled — not a failure of the bound.
		if rec.Code != http.StatusOK {
			t.Fatalf("clean drain but request finished with %d", rec.Code)
		}
	} else {
		if rec.Code != http.StatusServiceUnavailable && rec.Code != http.StatusRequestTimeout {
			t.Fatalf("hard-canceled request finished with %d, want 503 (draining) or 408", rec.Code)
		}
	}
	if after := settleGoroutines(t, before, 2); after > before+2 {
		t.Fatalf("goroutine leak after hard drain: %d before, %d after", before, after)
	}
}

// TestDrainRejectionIsOnTheLedger: an arrival during a drain whose class
// is known is counted like a queued request the drain released — one
// drain rejection and one 503 for its class — while a rejection before the
// class is known (an undecodable body, an unknown class) stays off the
// per-class ledger.
func TestDrainRejectionIsOnTheLedger(t *testing.T) {
	s := New(Config{})
	h := s.Handler()
	s.BeginDrain()
	rec := <-postAsync(h, "compile", &Request{Source: addSrc, Class: "interactive"})
	var er ErrorResponse
	if json.Unmarshal(rec.Body.Bytes(), &er); rec.Code != http.StatusServiceUnavailable || er.ErrorClass != "draining" || rec.Header().Get("Retry-After") == "" {
		t.Fatalf("arrival during drain: %d %q Retry-After %q, want 503 draining with Retry-After", rec.Code, er.ErrorClass, rec.Header().Get("Retry-After"))
	}
	if rec = <-postAsync(h, "compile", &Request{Source: addSrc, Class: "gold"}); rec.Code != http.StatusBadRequest {
		t.Fatalf("unknown class during drain: %d, want 400", rec.Code)
	}
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/run", bytes.NewReader([]byte("{nope"))))
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("undecodable body during drain: %d, want 400", rec.Code)
	}
	m := scrape(t, h)
	if got := m[`chopperd_requests_total{class="interactive",code="503"}`]; got != 1 {
		t.Errorf("requests_total{interactive,503} = %d, want 1", got)
	}
	if got := m[`chopperd_drain_rejected_total{class="interactive"}`]; got != 1 {
		t.Errorf("drain_rejected_total{interactive} = %d, want 1", got)
	}
	if got := m.sum(`chopperd_requests_total{`); got != 1 {
		t.Errorf("requests_total sums to %d over every class and code, want 1: pre-class rejections are off the ledger", got)
	}
}

func TestDrainIsIdempotent(t *testing.T) {
	s := New(Config{})
	s.BeginDrain()
	s.BeginDrain() // second call must not panic (double close)
	if !s.Draining() {
		t.Fatal("Draining() false after BeginDrain")
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown of an idle server: %v", err)
	}
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("repeated Shutdown: %v", err)
	}
}

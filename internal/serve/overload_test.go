package serve

import (
	"net/http"
	"sync"
	"testing"
)

// TestOverloadShedsDeterministically is the acceptance proof for
// admission control: with every execution slot held and the queue full,
// a burst of 2x capacity resolves every excess request to exactly 429 —
// no 500s, no hangs, no unbounded queueing — and the shed count is
// exact, not probabilistic.
func TestOverloadShedsDeterministically(t *testing.T) {
	const inflight, queue = 2, 2
	cc := DefaultClassConfig(Interactive)
	cc.MaxInflight, cc.MaxQueue = inflight, queue
	cfg := Config{}
	cfg.Classes[Interactive] = cc
	s := New(cfg)
	h := s.Handler()

	admitted := make(chan struct{}, inflight)
	release := make(chan struct{})
	s.testHookAdmitted = func(Class, string) {
		admitted <- struct{}{}
		<-release
	}

	// Saturate every execution slot.
	results := make([]chan int, 0, 2*(inflight+queue))
	req := func() *Request { return &Request{Source: addSrc, Class: "interactive"} }
	for i := 0; i < inflight; i++ {
		ch := make(chan int, 1)
		results = append(results, ch)
		go func() { rec := <-postAsync(h, "compile", req()); ch <- rec.Code }()
		<-admitted
	}
	// Fill the queue.
	for i := 0; i < queue; i++ {
		ch := make(chan int, 1)
		results = append(results, ch)
		go func() { rec := <-postAsync(h, "compile", req()); ch <- rec.Code }()
	}
	waitFor(t, func() bool { _, q := s.adm[Interactive].depths(); return q == queue })

	// The 2x burst: every one of these must shed with 429, immediately.
	var wg sync.WaitGroup
	burst := inflight + queue
	codes := make([]int, burst)
	for i := 0; i < burst; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			rec := <-postAsync(h, "compile", req())
			codes[i] = rec.Code
		}(i)
	}
	wg.Wait()
	for i, code := range codes {
		if code != http.StatusTooManyRequests {
			t.Fatalf("burst request %d resolved with %d, want 429", i, code)
		}
	}

	// Release the held slots: the saturating and queued requests all
	// complete with 200 — overload shed the excess, not the admitted
	// work. (The hook stays installed: the queued requests flow through
	// it too, against the now-closed release channel.)
	close(release)
	for i, ch := range results {
		if code := <-ch; code != http.StatusOK {
			t.Fatalf("admitted request %d finished with %d, want 200", i, code)
		}
	}

	// The accounting agrees: exactly `burst` sheds, zero 5xx.
	cm := &s.met.byClass[Interactive]
	s.met.mu.Lock()
	shed, admittedN := cm.shed, cm.admitted
	fiveHundreds := cm.statuses[http.StatusInternalServerError]
	s.met.mu.Unlock()
	if shed != uint64(burst) || admittedN != uint64(inflight+queue) || fiveHundreds != 0 {
		t.Fatalf("metrics: shed %d admitted %d 500s %d, want %d/%d/0", shed, admittedN, fiveHundreds, burst, inflight+queue)
	}
}

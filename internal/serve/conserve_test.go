package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"chopper"
)

// exposition is one /metrics scrape: series (name and labels) -> value.
type exposition map[string]int64

func scrape(t *testing.T, h http.Handler) exposition {
	t.Helper()
	code, body := get(t, h, "/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics %d", code)
	}
	m := exposition{}
	for _, line := range strings.Split(strings.TrimSpace(body), "\n") {
		i := strings.LastIndexByte(line, ' ')
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			t.Fatalf("/metrics line %q: %v", line, err)
		}
		m[line[:i]] = int64(v)
	}
	return m
}

// sum adds every series whose text starts with prefix.
func (m exposition) sum(prefix string) (n int64) {
	for series, v := range m {
		if strings.HasPrefix(series, prefix) {
			n += v
		}
	}
	return n
}

// conservConfig makes every path reachable with about a hundred requests:
// one or two slots and a queue of up to two per class (sheds, queue waits),
// a batch window on the batch class (coalesced passes and window
// withdrawals), an interactive deadline short enough that some requests
// miss it, and a best-effort micro-op budget that a 16-bit multiply
// exceeds, with a breaker that trips after two such failures.
func conservConfig(rng *rand.Rand) Config {
	cfg := Config{BreakerTripAfter: 2, BreakerRecoverAfter: 2}
	for c := Class(0); c < numClasses; c++ {
		cc := DefaultClassConfig(c)
		cc.MaxInflight, cc.MaxQueue = 1+rng.Intn(2), rng.Intn(3)
		cfg.Classes[c] = cc
	}
	cfg.Classes[Interactive].Deadline = time.Duration(50+rng.Intn(1000)) * time.Microsecond
	cfg.Classes[Batch].BatchWindow = time.Duration(1+rng.Intn(4)) * time.Millisecond
	cfg.Classes[Batch].MaxBatchSize = 2 + rng.Intn(3)
	cfg.Classes[BestEffort].Budget = chopper.Budget{MaxMicroOps: 1024}
	return cfg
}

// conservRequest draws one submission: its endpoint, its body, and the
// class it is counted under (onLedger false when the body is rejected
// before its class is known).
func conservRequest(rng *rand.Rand) (kind string, body []byte, class Class, onLedger bool) {
	kind = [...]string{"compile", "run", "verify"}[rng.Intn(3)]
	class = Class(rng.Intn(int(numClasses)))
	req := Request{Tenant: fmt.Sprintf("t%d", rng.Intn(3)), Class: class.String(), Source: addSrc,
		Lanes: 1 + rng.Intn(8), Trials: 1 + rng.Intn(3), Seed: rng.Int63n(100)}
	onLedger = true
	switch rng.Intn(15) {
	case 0:
		return kind, []byte(`{"source": "node main(a: u8`), 0, false
	case 1:
		req.Class, onLedger = "gold", false
	case 2, 3:
		// A cache miss with real compile work, over the best-effort budget.
		req.Source = fmt.Sprintf("node main(a: u16, b: u16) returns (z: u16) let z = a * b + %d:u16; tel", rng.Intn(1<<16))
	case 4:
		req.Source = mulSrc
	case 5:
		req.Source = "node main(a: u8, b: u8) returns (z: u8) let z = a ^ b; tel"
	case 6:
		req.Target = "hbm"
	case 7:
		req.Source = "not a program"
	case 8:
		req.Lanes, req.Trials = 1<<20, 1<<20
	case 9:
		req.NoBatch = true
	}
	if kind == "run" {
		req.Inputs = map[string][]uint64{"a": make([]uint64, min(req.Lanes, 8)), "b": make([]uint64, min(req.Lanes, 8))}
		for i := range req.Inputs["a"] {
			req.Inputs["a"][i], req.Inputs["b"][i] = uint64(rng.Intn(256)), uint64(rng.Intn(256))
		}
	}
	body, _ = json.Marshal(&req)
	return kind, body, class, onLedger
}

// outcome is what one client saw.
type outcome struct {
	class     Class
	onLedger  bool
	code      int
	batchSize int
}

// TestConservationLedger drives seeded random interleavings of
// submissions (valid, malformed, over budget, unknown class, undecodable),
// coalescing bursts, client cancels, class-deadline expiries, BeginDrain
// and Shutdown against one server, and checks at quiescence that every
// request the server could classify is accounted for exactly once:
//
//  1. requests_total{class,code} equals what the clients saw;
//  2. Σ_code requests_total = admitted + shed + drain_rejected + queue_timeout;
//  3. Σ_mode batch_requests_total = batch_occupancy_sum, batch_passes_total
//     = batch_occupancy_count, and the batch counters agree with the
//     admissions and with the batch sizes clients were told;
//  4. no admission slot, queue entry, request, open batch or goroutine
//     is left behind;
//  5. no status outside {200, 400, 408, 413, 422, 429, 503}.
func TestConservationLedger(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) { checkConservation(t, seed) })
	}
}

func checkConservation(t *testing.T, seed int64) {
	before := runtime.NumGoroutine()
	rng := rand.New(rand.NewSource(seed))
	s := New(conservConfig(rng))
	h := s.Handler()

	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		outcomes []outcome
	)
	submit := func(kind string, body []byte, class Class, onLedger bool, cancelAfter time.Duration) {
		ctx, cancel := context.WithCancel(context.Background())
		if cancelAfter >= 0 {
			time.AfterFunc(cancelAfter, cancel)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer cancel()
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/"+kind, bytes.NewReader(body)).WithContext(ctx))
			var resp Response
			if rec.Code == http.StatusOK {
				if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
					t.Errorf("200 with undecodable body %q", rec.Body.String())
				}
			}
			mu.Lock()
			outcomes = append(outcomes, outcome{class, onLedger, rec.Code, resp.BatchSize})
			mu.Unlock()
		}()
	}

	const ops = 96
	drainAt := 2*ops/3 + rng.Intn(ops/3)
	shutdownAt := drainAt + rng.Intn(ops-drainAt)
	for i := 0; i < ops; i++ {
		switch i {
		case drainAt:
			s.BeginDrain()
		case shutdownAt:
			// A drain timeout this short often hard-cancels in-flight work.
			timeout := time.Duration(1+rng.Intn(20)) * time.Millisecond
			wg.Add(1)
			go func() {
				defer wg.Done()
				ctx, cancel := context.WithTimeout(context.Background(), timeout)
				defer cancel()
				s.Shutdown(ctx) // a hard cancel is one of the paths under test
			}()
		}
		cancelAfter := time.Duration(-1)
		if rng.Intn(6) == 0 {
			cancelAfter = time.Duration(rng.Intn(3000)) * time.Microsecond
		}
		if rng.Intn(5) == 0 {
			// A same-key burst: it coalesces in the batch class's window and
			// overruns the slots and queues of the others.
			class := Class(rng.Intn(int(numClasses)))
			body, _ := json.Marshal(&Request{Tenant: "t0", Class: class.String(), Source: addSrc, Lanes: 2,
				Inputs: map[string][]uint64{"a": {1, 2}, "b": {3, 4}}})
			for n := 2 + rng.Intn(4); n > 0; n-- {
				submit("run", body, class, true, cancelAfter)
			}
		} else {
			kind, body, class, onLedger := conservRequest(rng)
			submit(kind, body, class, onLedger, cancelAfter)
		}
		time.Sleep(time.Duration(rng.Intn(400)) * time.Microsecond)
	}
	wg.Wait()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("final Shutdown: %v", err)
	}

	// 4: nothing left behind.
	for c := Class(0); c < numClasses; c++ {
		if inflight, queued := s.adm[c].depths(); inflight != 0 || queued != 0 {
			t.Errorf("class %v: %d slots held, %d queued at quiescence", c, inflight, queued)
		}
	}
	if n := s.inflight.Load(); n != 0 {
		t.Errorf("%d requests in flight at quiescence", n)
	}
	s.bat.mu.Lock()
	if n := len(s.bat.open); n != 0 {
		t.Errorf("%d batches still open at quiescence", n)
	}
	s.bat.mu.Unlock()
	if after := settleGoroutines(t, before, 2); after > before+2 {
		t.Errorf("goroutines: %d before, %d at quiescence", before, after)
	}

	// What the clients saw.
	var seen [numClasses]map[int]int64
	var sawBatched, sawSolo [numClasses]int64
	for c := range seen {
		seen[c] = map[int]int64{}
	}
	for _, o := range outcomes {
		switch o.code { // 5
		case 200, 400, 408, 413, 422, 429, 503:
		default:
			t.Errorf("status %d outside the contract", o.code)
		}
		if !o.onLedger {
			if o.code != http.StatusBadRequest {
				t.Errorf("pre-class rejection answered %d, want 400", o.code)
			}
			continue
		}
		seen[o.class][o.code]++
		switch {
		case o.batchSize >= 2:
			sawBatched[o.class]++
		case o.batchSize == 1:
			sawSolo[o.class]++
		}
	}

	m := scrape(t, h)
	for c := Class(0); c < numClasses; c++ {
		// 1
		counted := map[int]int64{}
		prefix := fmt.Sprintf("chopperd_requests_total{class=%q,code=\"", c)
		for series, v := range m {
			if code, ok := strings.CutPrefix(series, prefix); ok {
				n, _ := strconv.Atoi(strings.TrimSuffix(code, `"}`))
				counted[n] = v
			}
		}
		var total int64
		for code, n := range counted {
			total += n
			if n != seen[c][code] {
				t.Errorf("class %v code %d: requests_total %d, clients saw %d", c, code, n, seen[c][code])
			}
		}
		for code, n := range seen[c] {
			if _, ok := counted[code]; !ok {
				t.Errorf("class %v code %d: clients saw %d, no requests_total series", c, code, n)
			}
		}
		// 2
		series := func(name string) int64 { return m[fmt.Sprintf("chopperd_%s{class=%q}", name, c)] }
		admitted := series("admitted_total")
		if out := admitted + series("shed_total") + series("drain_rejected_total") + series("queue_timeout_total"); total != out {
			t.Errorf("class %v: Σ requests_total %d != admitted %d + shed %d + drain_rejected %d + queue_timeout %d",
				c, total, admitted, series("shed_total"), series("drain_rejected_total"), series("queue_timeout_total"))
		}
		// 3
		batched := m[fmt.Sprintf("chopperd_batch_requests_total{class=%q,mode=\"batched\"}", c)]
		solo := m[fmt.Sprintf("chopperd_batch_requests_total{class=%q,mode=\"solo\"}", c)]
		if batched+solo != series("batch_occupancy_sum") || series("batch_passes_total") != series("batch_occupancy_count") {
			t.Errorf("class %v: batch requests %d+%d vs occupancy sum %d; passes %d vs occupancy count %d",
				c, batched, solo, series("batch_occupancy_sum"), series("batch_passes_total"), series("batch_occupancy_count"))
		}
		if batched+solo > admitted || batched < sawBatched[c] || solo < sawSolo[c] {
			t.Errorf("class %v: batch requests %d batched + %d solo, admitted %d, clients told batch_size >= 2 %d times and 1 %d times",
				c, batched, solo, admitted, sawBatched[c], sawSolo[c])
		}
	}
}

// TestConservationBreakerWalk: over random outcome sequences, each
// observation moves a tenant's breaker by at most one level and keeps it
// on the ladder; a bad outcome never raises the tenant, a good one never
// lowers it, and a neutral one moves nothing.
func TestConservationBreakerWalk(t *testing.T) {
	errClasses := []string{"", "", "budget", "internal", "deadline", "options", "parse", "typecheck", "shed", "draining", "canceled", "verify"}
	for seed := int64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		b := newBreaker(1+rng.Intn(3), 1+rng.Intn(3))
		for i := 0; i < 1000; i++ {
			degraded, ec := rng.Intn(4) == 0, errClasses[rng.Intn(len(errClasses))]
			from, _ := b.state()
			b.observe(degraded, ec)
			to, _ := b.state()
			bad := ec == "budget" || ec == "internal" || ec == "deadline" || (ec == "" && degraded)
			neutral := ec != "" && !bad
			if d := to - from; to < 0 || to > breakerMaxLevel || d < -1 || d > 1 ||
				(neutral && d != 0) || (bad && d < 0) || (!bad && !neutral && d > 0) {
				t.Fatalf("seed %d step %d: observe(%v, %q) moved level %d -> %d", seed, i, degraded, ec, from, to)
			}
		}
	}
}

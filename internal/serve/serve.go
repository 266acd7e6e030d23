// Package serve is chopperd's engine: a production-hardened, multi-tenant
// compile-and-execute HTTP service over the chopper library, where every
// robustness mechanism the library grew — guard budgets and deadlines, the
// kernel cache, the graceful-degradation ladder, the
// stage-classed sentinel errors — becomes a per-request contract.
//
//   - Admission control and QoS: requests declare a class (interactive /
//     batch / best-effort); each class maps to a guard.Budget, a deadline,
//     a bounded queue and a max-inflight semaphore. When the queue fills,
//     requests are shed deterministically with HTTP 429 + Retry-After
//     instead of growing goroutines without bound.
//   - Failure isolation: every tenant gets its own kernel-cache shard
//     behind the kcache single-flight layer (a thundering herd of
//     identical compiles does one compile), and a per-tenant circuit
//     breaker that walks repeated degradation/budget/internal failures
//     down the optimization ladder to the baseline pipeline — the tenant
//     keeps getting answers, with the degraded state surfaced in the
//     response. Handler-boundary panic recovery maps everything else onto
//     the stage-classed sentinel taxonomy and stable HTTP statuses.
//   - Lifecycle: SetNotReady flips /readyz ahead of a drain so load
//     balancers stop routing; BeginDrain stops admitting (503); Shutdown
//     waits for in-flight work and hard-cancels it through the guard
//     layer's context checkpoints when the drain deadline passes.
//
// See docs/SERVICE.md for the endpoint reference, the error -> status
// table and the drain sequence.
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"chopper"
	"chopper/internal/dram"
	"chopper/internal/isa"
	"chopper/internal/obs"
)

// Class is a request QoS class. Classes are admission-control domains:
// each has its own inflight semaphore, bounded queue, deadline and
// resource budget, so a flood of batch work cannot starve interactive
// requests of execution slots.
type Class int

const (
	// Interactive is the low-latency class: tight deadline, moderate
	// budget, shed early rather than queue deep.
	Interactive Class = iota
	// Batch is the throughput class: long deadline, deep queue, the
	// largest budgets.
	Batch
	// BestEffort is the scavenger class: smallest budgets, shortest
	// queue, first to shed under load.
	BestEffort
	numClasses
)

var classNames = [numClasses]string{"interactive", "batch", "best-effort"}

func (c Class) String() string {
	if c < 0 || c >= numClasses {
		return fmt.Sprintf("class(%d)", int(c))
	}
	return classNames[c]
}

// ParseClass maps the wire name onto a Class; "" defaults to Batch.
func ParseClass(s string) (Class, error) {
	switch strings.ToLower(s) {
	case "":
		return Batch, nil
	case "interactive":
		return Interactive, nil
	case "batch":
		return Batch, nil
	case "best-effort", "besteffort":
		return BestEffort, nil
	}
	return 0, fmt.Errorf("unknown QoS class %q (valid: interactive, batch, best-effort)", s)
}

// ClassConfig is one QoS class's per-request contract.
type ClassConfig struct {
	// MaxInflight bounds concurrently executing requests of this class.
	MaxInflight int
	// MaxQueue bounds admitted-but-waiting requests; arrivals beyond it
	// are shed with 429. 0 disables queueing (shed when slots are full).
	MaxQueue int
	// Deadline bounds each request end to end — queue wait included —
	// through the guard layer's context checkpoints. 0 means no deadline.
	Deadline time.Duration
	// Budget caps the resource dimensions of each request's compile and
	// simulation (see chopper.Budget). The zero value is unlimited.
	Budget chopper.Budget
	// BatchWindow enables request coalescing for this class: run/verify
	// requests sharing a compatibility key (target, opt level, hardening,
	// entry, source — everything that selects the compiled kernel and the
	// execution semantics) collect for up to this long and execute as ONE
	// simulated device pass, each member keeping byte-identical results.
	// The window never extends a request past its class deadline — a
	// member whose deadline expires while the window is open leaves with
	// 408 exactly as a queued request would. 0 (the default) disables
	// batching for the class.
	BatchWindow time.Duration
	// MaxBatchSize caps members per coalesced pass; a full batch executes
	// before its window closes. <= 1 with a positive BatchWindow selects
	// the default (8); the hard cap is 64.
	MaxBatchSize int
}

// Breaker and tenant-bound defaults.
const (
	defaultBreakerTripAfter    = 5
	defaultBreakerRecoverAfter = 3
	defaultCacheEntries        = 64
	defaultMaxTenants          = 256
	defaultMaxBodyBytes        = 8 << 20
	defaultMaxLanes            = 4096
	defaultMaxVerifyTrials     = 64
	defaultMaxBatchSize        = 8
	maxBatchSizeCap            = 64
)

// Config configures a Server. The zero value of any field selects a
// production-safe default; see DefaultConfig.
type Config struct {
	// Classes configures each QoS class; zero-valued entries get the
	// DefaultConfig entry for that class.
	Classes [numClasses]ClassConfig
	// CacheEntries bounds each tenant's kernel-cache shard (<= 0: 64).
	CacheEntries int
	// MaxTenants bounds the tenant table. Tenants beyond the bound share
	// one overflow shard (cache + breaker) instead of growing the map
	// without limit — graceful degradation, not rejection. <= 0: 256.
	MaxTenants int
	// BreakerTripAfter is the consecutive bad-outcome count that steps a
	// tenant one level down the degradation ladder (<= 0: 5).
	BreakerTripAfter int
	// BreakerRecoverAfter is the consecutive good-outcome count that
	// steps a degraded tenant back up one level (<= 0: 3).
	BreakerRecoverAfter int
	// MaxBodyBytes bounds request bodies (<= 0: 8 MiB).
	MaxBodyBytes int64
	// MaxLanes bounds the SIMD lanes a run/verify request may ask for
	// (<= 0: 4096).
	MaxLanes int
	// MaxVerifyTrials bounds per-request verification trials (<= 0: 64).
	MaxVerifyTrials int
}

// DefaultClassConfig returns the default contract for one class.
func DefaultClassConfig(c Class) ClassConfig {
	procs := runtime.GOMAXPROCS(0)
	switch c {
	case Interactive:
		n := procs
		if n < 4 {
			n = 4
		}
		return ClassConfig{
			MaxInflight: n,
			MaxQueue:    4 * n,
			Deadline:    2 * time.Second,
			Budget: chopper.Budget{
				MaxNetGates: 1 << 18, MaxMicroOps: 1 << 19,
				MaxSimSteps: 1 << 22, MaxDRAMCommands: 1 << 22,
			},
		}
	case BestEffort:
		return ClassConfig{
			MaxInflight: 2,
			MaxQueue:    4,
			Deadline:    time.Second,
			Budget: chopper.Budget{
				MaxNetGates: 1 << 16, MaxMicroOps: 1 << 17,
				MaxSimSteps: 1 << 20, MaxDRAMCommands: 1 << 20,
			},
		}
	default: // Batch
		n := procs / 2
		if n < 2 {
			n = 2
		}
		return ClassConfig{
			MaxInflight: n,
			MaxQueue:    16 * n,
			Deadline:    30 * time.Second,
			Budget: chopper.Budget{
				MaxNetGates: 1 << 20, MaxMicroOps: 1 << 21,
				MaxSimSteps: 1 << 24, MaxDRAMCommands: 1 << 24,
			},
		}
	}
}

func (cfg Config) normalize() Config {
	for c := Class(0); c < numClasses; c++ {
		if cfg.Classes[c] == (ClassConfig{}) {
			cfg.Classes[c] = DefaultClassConfig(c)
		}
		if cfg.Classes[c].MaxInflight < 1 {
			cfg.Classes[c].MaxInflight = 1
		}
		if cfg.Classes[c].BatchWindow < 0 {
			cfg.Classes[c].BatchWindow = 0
		}
		if cfg.Classes[c].BatchWindow > 0 {
			if cfg.Classes[c].MaxBatchSize <= 1 {
				cfg.Classes[c].MaxBatchSize = defaultMaxBatchSize
			}
			if cfg.Classes[c].MaxBatchSize > maxBatchSizeCap {
				cfg.Classes[c].MaxBatchSize = maxBatchSizeCap
			}
		}
	}
	if cfg.CacheEntries <= 0 {
		cfg.CacheEntries = defaultCacheEntries
	}
	if cfg.MaxTenants <= 0 {
		cfg.MaxTenants = defaultMaxTenants
	}
	if cfg.BreakerTripAfter <= 0 {
		cfg.BreakerTripAfter = defaultBreakerTripAfter
	}
	if cfg.BreakerRecoverAfter <= 0 {
		cfg.BreakerRecoverAfter = defaultBreakerRecoverAfter
	}
	if cfg.MaxBodyBytes <= 0 {
		cfg.MaxBodyBytes = defaultMaxBodyBytes
	}
	if cfg.MaxLanes <= 0 {
		cfg.MaxLanes = defaultMaxLanes
	}
	if cfg.MaxVerifyTrials <= 0 {
		cfg.MaxVerifyTrials = defaultMaxVerifyTrials
	}
	return cfg
}

// tenant is one isolation shard: a bounded kernel cache and a circuit
// breaker. Tenants never share compile results (the cache key does not
// include the tenant, but the shards are disjoint) and one tenant's
// failure streak degrades only its own pipeline.
type tenant struct {
	name  string
	cache *chopper.KernelCache
	brk   *breaker
}

// Server is the chopperd engine. Construct with New; serve s.Handler().
type Server struct {
	cfg Config
	adm [numClasses]*admitter
	met *metrics

	mu       sync.Mutex
	tenants  map[string]*tenant
	overflow *tenant

	// bat indexes open (still-joinable) coalesced batches by
	// compatibility key; laneWordCap bounds a batch's combined operand
	// words to one physical row.
	bat         batcher
	laneWordCap int

	drainCh   chan struct{}
	drainOnce sync.Once
	notReady  atomic.Bool
	inflight  atomic.Int64

	// baseCtx is canceled at the hard drain deadline; every request
	// context derives from it, so cancellation reaches the guard
	// checkpoints inside compiles and simulations.
	baseCtx    context.Context
	baseCancel context.CancelFunc

	// testHookAdmitted, when non-nil, runs after a request is admitted
	// and before it executes — the seam drain/overload tests use to hold
	// requests in flight deterministically.
	testHookAdmitted func(Class, string)
}

// New builds a Server from cfg (zero-valued fields get defaults).
func New(cfg Config) *Server {
	cfg = cfg.normalize()
	s := &Server{
		cfg:         cfg,
		met:         newMetrics(),
		tenants:     make(map[string]*tenant),
		drainCh:     make(chan struct{}),
		bat:         batcher{open: make(map[batchKey]*svcBatch)},
		laneWordCap: dram.DefaultGeometry().Bitlines() / 64,
	}
	s.baseCtx, s.baseCancel = context.WithCancel(context.Background())
	for c := Class(0); c < numClasses; c++ {
		s.adm[c] = newAdmitter(cfg.Classes[c].MaxInflight, cfg.Classes[c].MaxQueue)
	}
	s.overflow = s.newTenant("(overflow)")
	return s
}

func (s *Server) newTenant(name string) *tenant {
	return &tenant{
		name:  name,
		cache: chopper.NewKernelCache(s.cfg.CacheEntries),
		brk:   newBreaker(s.cfg.BreakerTripAfter, s.cfg.BreakerRecoverAfter),
	}
}

// tenantFor returns the tenant's shard, creating it under the bound;
// beyond MaxTenants, unknown tenants share the overflow shard.
func (s *Server) tenantFor(name string) *tenant {
	s.mu.Lock()
	defer s.mu.Unlock()
	if t, ok := s.tenants[name]; ok {
		return t
	}
	if len(s.tenants) >= s.cfg.MaxTenants {
		return s.overflow
	}
	t := s.newTenant(name)
	s.tenants[name] = t
	return t
}

// Handler returns the service mux.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/compile", s.handleWork("compile"))
	mux.HandleFunc("/v1/run", s.handleWork("run"))
	mux.HandleFunc("/v1/verify", s.handleWork("verify"))
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusOK)
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("/readyz", func(w http.ResponseWriter, r *http.Request) {
		if s.notReady.Load() {
			w.WriteHeader(http.StatusServiceUnavailable)
			fmt.Fprintln(w, "draining")
			return
		}
		w.WriteHeader(http.StatusOK)
		fmt.Fprintln(w, "ready")
	})
	mux.HandleFunc("/metrics", s.handleMetrics)
	return mux
}

// Request is the JSON body of /v1/compile, /v1/run and /v1/verify.
type Request struct {
	// Tenant selects the isolation shard; "" shares the default shard.
	Tenant string `json:"tenant,omitempty"`
	// Class is the QoS class: interactive, batch (default), best-effort.
	Class string `json:"class,omitempty"`
	// Source is the CHOPPER program.
	Source string `json:"source"`
	// Target is the PUD architecture: ambit (default), elp2im, simdram.
	Target string `json:"target,omitempty"`
	// Opt is the optimization level: bitslice, schedule, reuse,
	// rename (default). The tenant's breaker may cap it lower.
	Opt string `json:"opt,omitempty"`
	// Harden compiles with TMR hardening.
	Harden bool `json:"harden,omitempty"`
	// Baseline requests the hands-tuned SIMDRAM methodology.
	Baseline bool `json:"baseline,omitempty"`
	// Entry overrides the entry node.
	Entry string `json:"entry,omitempty"`
	// Lanes is the SIMD width for run/verify (default 16).
	Lanes int `json:"lanes,omitempty"`
	// Inputs are the run operands, one value per lane (widths <= 64).
	Inputs map[string][]uint64 `json:"inputs,omitempty"`
	// Trials is the verify trial count (default 3).
	Trials int `json:"trials,omitempty"`
	// Seed seeds verification inputs (default 1).
	Seed int64 `json:"seed,omitempty"`
	// NoBatch opts this request out of coalescing even when its class has
	// a batch window (for clients that want strict request isolation, and
	// for comparing a batched member with its solo run).
	NoBatch bool `json:"no_batch,omitempty"`
}

// resolve fills in the fields the client left out. It runs once, right
// after decode, so admission, the batcher and the executor all read the
// request's own values; a client's explicit out-of-range value is left for
// checkBounds to reject.
func (r *Request) resolve() {
	if r.Lanes == 0 {
		r.Lanes = 16
	}
	if r.Trials == 0 {
		r.Trials = 3
	}
	if r.Seed == 0 {
		r.Seed = 1
	}
}

// Response is the JSON body of a successful request.
type Response struct {
	Tenant string `json:"tenant,omitempty"`
	Class  string `json:"class"`

	// Compile facts, present on every endpoint (run and verify compile
	// first, through the tenant's cache shard).
	MicroOps     int    `json:"micro_ops"`
	Pipeline     string `json:"pipeline"` // "chopper" or "baseline"
	RequestedOpt string `json:"requested_opt"`
	EffectiveOpt string `json:"effective_opt"`
	// Degraded is true when the kernel compiled below the requested
	// pipeline — the compiler's own ladder, or the tenant's breaker.
	Degraded       bool   `json:"degraded,omitempty"`
	DegradedReason string `json:"degraded_reason,omitempty"`
	// BreakerLevel is the tenant's current degradation level (0 = none,
	// 4 = baseline pipeline).
	BreakerLevel int `json:"breaker_level,omitempty"`
	// Cache says how the kernel cache served this compile: miss, hit,
	// or shared (joined a concurrent identical compile).
	Cache     string `json:"cache"`
	CompileNs int64  `json:"compile_ns"`

	// Run results.
	Outputs map[string][]uint64 `json:"outputs,omitempty"`
	// TimeNs is the simulated single-subarray makespan.
	TimeNs float64 `json:"time_ns,omitempty"`

	// Verify results. VerifyOK false with a 200 status means the kernel
	// ran but disagreed with the reference semantics.
	VerifyOK     *bool  `json:"verify_ok,omitempty"`
	VerifyDetail string `json:"verify_detail,omitempty"`
	Trials       int    `json:"trials,omitempty"`

	// BatchSize reports how many requests shared this request's coalesced
	// device pass (absent on the solo path; 1 means the batch window
	// closed with no company).
	BatchSize int `json:"batch_size,omitempty"`

	// compilerDegraded is true only when the compiler itself walked the
	// degradation ladder (not when the breaker pre-capped the request).
	// The breaker feeds on this, not on Degraded: a tenant already capped
	// by its breaker must not count its own capping as a new failure, or
	// it could never recover.
	compilerDegraded bool
}

// ErrorResponse is the JSON body of a failed request.
type ErrorResponse struct {
	Error string `json:"error"`
	// ErrorClass is the stable machine-readable class: one of
	// chopper.ErrorClass's values, or "shed" / "draining".
	ErrorClass string `json:"error_class"`
}

// StatusForClass maps an error class (chopper.ErrorClass plus the serve
// layer's "shed" and "draining") onto its HTTP status. One table, used
// by the handlers and pinned by tests, so the wire contract cannot
// drift from the error taxonomy:
//
//	400 options, parse, typecheck, normalize, codegen (bad request)
//	408 deadline, canceled (request timed out / client gave up)
//	413 budget (request exceeds its class's resource budget)
//	422 verify (kernel ran but failed verification)
//	429 shed (class queue full; retry with backoff)
//	500 internal, unknown
//	503 draining (server shutting down; retry elsewhere)
func StatusForClass(class string) int {
	switch class {
	case "options", "parse", "typecheck", "normalize", "codegen":
		return http.StatusBadRequest
	case "deadline", "canceled":
		return http.StatusRequestTimeout
	case "budget":
		return http.StatusRequestEntityTooLarge
	case "verify":
		return http.StatusUnprocessableEntity
	case "shed":
		return http.StatusTooManyRequests
	case "draining":
		return http.StatusServiceUnavailable
	default:
		return http.StatusInternalServerError
	}
}

// classify maps any request-processing error onto its class name.
// During a drain, hard-canceled work classifies as "draining" (503) —
// the cancellation was the server's choice, not the client's problem.
func (s *Server) classify(err error) string {
	switch {
	case errors.Is(err, errShed):
		return "shed"
	case errors.Is(err, errDraining):
		return "draining"
	}
	var re *reqError
	if errors.As(err, &re) {
		return re.class
	}
	c := chopper.ErrorClass(err)
	if c == "canceled" && s.Draining() {
		return "draining"
	}
	if c == "" {
		return "unknown"
	}
	return c
}

// reqError carries a serve-layer validation failure with its class.
type reqError struct {
	class string
	msg   string
}

func (e *reqError) Error() string { return e.msg }

func optionsErrf(format string, args ...any) error {
	return &reqError{class: "options", msg: fmt.Sprintf(format, args...)}
}

// handleWork serves one work endpoint. Every request whose class is known
// is answered through finishWork and so lands in exactly one per-class
// ledger bucket (admitted, shed, drain-rejected, queue-timeout) and one
// requests_total{class,code} series. Rejections before the class is known
// (405, an undecodable body, an unknown class) have no class to count
// under and stay outside the ledger.
func (s *Server) handleWork(kind string) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		s.inflight.Add(1)
		defer s.inflight.Add(-1)
		var (
			class    Class
			tn       *tenant
			start    time.Time
			admitted bool
		)
		// Panic recovery at the handler boundary: the chopper API already
		// recovers its own panics to ErrInternal; this is the last line
		// for serve-layer bugs. 500, never a crashed process; after
		// admission, finished like any executed failure.
		defer func() {
			if rec := recover(); rec != nil {
				s.met.panicked()
				err := &reqError{class: "internal", msg: fmt.Sprintf("internal: %v", rec)}
				if admitted {
					s.finishWork(w, class, tn, start, nil, true, err)
					return
				}
				writeError(w, err, "internal")
			}
		}()
		if r.Method != http.MethodPost {
			w.Header().Set("Allow", http.MethodPost)
			http.Error(w, "POST only", http.StatusMethodNotAllowed)
			return
		}
		var req Request
		r.Body = http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			writeError(w, fmt.Errorf("bad request body: %w", err), "options")
			return
		}
		req.resolve()
		var err error
		if class, err = ParseClass(req.Class); err != nil {
			writeError(w, err, "options")
			return
		}
		cc := s.cfg.Classes[class]
		tn, start = s.tenantFor(req.Tenant), time.Now()
		if s.Draining() {
			s.finishWork(w, class, tn, start, nil, false, errDraining)
			return
		}

		// The class deadline starts at arrival: queue wait spends it.
		ctx, cancel := s.workCtx(r.Context(), cc.Deadline)
		defer cancel()

		if s.batchEligible(kind, cc, &req) {
			if plan, perr := s.planRequest(&req, tn, cc); perr == nil {
				resp, executed, err := s.runBatched(ctx, kind, &req, plan, tn, cc, class)
				s.finishWork(w, class, tn, start, resp, executed, err)
				return
			}
			// Plan (target/opt/source) errors fall through to the solo
			// path so validation keeps its place behind admission.
		}

		if err := s.adm[class].acquire(ctx, s.drainCh); err != nil {
			s.finishWork(w, class, tn, start, nil, false, err)
			return
		}
		s.met.admitted(class)
		admitted = true
		defer s.adm[class].release()
		if h := s.testHookAdmitted; h != nil {
			h(class, kind)
		}

		resp, err := s.execute(ctx, kind, &req, tn, cc, class)
		s.finishWork(w, class, tn, start, resp, true, err)
	}
}

// finishWork is the shared request epilogue: breaker observation and
// metrics for executed requests, rejection accounting for requests that
// never reached execution (admission failures, batch-window expiries),
// then the response write.
func (s *Server) finishWork(w http.ResponseWriter, class Class, tn *tenant, start time.Time, resp *Response, executed bool, err error) {
	elapsed := float64(time.Since(start).Nanoseconds())
	if err != nil {
		ec := s.classify(err)
		if executed {
			tn.brk.observe(false, ec)
		} else {
			s.met.rejected(class, ec)
		}
		s.met.finished(class, StatusForClass(ec), elapsed)
		writeError(w, err, ec)
		return
	}
	tn.brk.observe(resp.compilerDegraded, "")
	s.met.finished(class, http.StatusOK, elapsed)
	writeJSON(w, http.StatusOK, resp)
}

// reqPlan is the compile decision for one request after parsing its
// knobs and applying the tenant's breaker plan. It is everything a
// compile needs besides the source text, computed once so the batched
// and solo paths cannot diverge.
type reqPlan struct {
	target    chopper.Target
	requested chopper.OptLevel
	effOpt    chopper.OptLevel
	baseline  bool
	level     int
	opts      chopper.Options
}

// planRequest parses the request's compile knobs and applies the
// tenant's breaker plan. Errors are all options-classed validation
// failures.
func (s *Server) planRequest(req *Request, tn *tenant, cc ClassConfig) (*reqPlan, error) {
	target, err := parseTarget(req.Target)
	if err != nil {
		return nil, err
	}
	requested, err := parseOpt(req.Opt)
	if err != nil {
		return nil, err
	}
	if strings.TrimSpace(req.Source) == "" {
		return nil, optionsErrf("empty source")
	}

	effOpt, baseline, level := tn.brk.plan(requested)
	baseline = baseline || req.Baseline
	opts := chopper.Options{
		Target: target,
		Harden: req.Harden,
		Entry:  req.Entry,
		Budget: cc.Budget,
		Cache:  tn.cache,
	}.WithOpt(effOpt)
	if baseline && req.Harden {
		// The baseline pipeline rejects Harden; under a breaker reroute,
		// degrade the hardening away rather than failing the tenant.
		if !req.Baseline {
			opts.Harden = false
		}
	}
	return &reqPlan{
		target:    target,
		requested: requested,
		effOpt:    effOpt,
		baseline:  baseline,
		level:     level,
		opts:      opts,
	}, nil
}

// compileForPlan compiles the source under a plan, through the plan's
// cache shard.
func compileForPlan(ctx context.Context, p *reqPlan, source string) (*chopper.Kernel, chopper.CacheOutcome, int64, error) {
	compile := chopper.CompileCtxCached
	if p.baseline {
		compile = chopper.CompileBaselineCached
	}
	compileStart := time.Now()
	k, outcome, err := compile(ctx, source, p.opts)
	return k, outcome, time.Since(compileStart).Nanoseconds(), err
}

// baseResponse builds the compile-fact part of a response: pipeline,
// optimization/degradation state, cache outcome. Batched members each
// get their own (their breaker level may differ even when the compiled
// kernel is shared).
func baseResponse(req *Request, class Class, p *reqPlan, k *chopper.Kernel, outcome chopper.CacheOutcome, compileNs int64) *Response {
	resp := &Response{
		Tenant:       req.Tenant,
		Class:        class.String(),
		MicroOps:     len(k.Prog().Ops),
		Pipeline:     "chopper",
		RequestedOpt: p.requested.String(),
		EffectiveOpt: p.effOpt.String(),
		BreakerLevel: p.level,
		Cache:        outcome.String(),
		CompileNs:    compileNs,
	}
	if p.baseline {
		resp.Pipeline = "baseline"
		resp.EffectiveOpt = "baseline"
	}
	if p.level > 0 {
		resp.Degraded = true
		resp.DegradedReason = fmt.Sprintf("tenant breaker at level %d: pipeline capped to %s", p.level, resp.EffectiveOpt)
	}
	if k.Degradation != nil {
		resp.Degraded = true
		resp.compilerDegraded = true
		resp.EffectiveOpt = k.Degradation.Effective.String()
		resp.DegradedReason = fmt.Sprintf("compiler degraded to %s after %d pass failures",
			k.Degradation.Effective, len(k.Degradation.Events))
	}
	return resp
}

// checkBounds rejects a run's lane count or a verify's trial count outside
// the server's limits.
func (s *Server) checkBounds(kind string, req *Request) error {
	switch {
	case kind == "run" && (req.Lanes < 1 || req.Lanes > s.cfg.MaxLanes):
		return optionsErrf("lanes %d outside [1, %d]", req.Lanes, s.cfg.MaxLanes)
	case kind == "verify" && (req.Trials < 1 || req.Trials > s.cfg.MaxVerifyTrials):
		return optionsErrf("trials %d outside [1, %d]", req.Trials, s.cfg.MaxVerifyTrials)
	}
	return nil
}

// batchEligible says whether a request may join a coalesced pass:
// the class must have a batch window, the request must not opt out, and
// the kind must be run or verify with in-bounds lane/trial counts
// (out-of-bounds values take the solo path, so they are rejected behind
// admission and never size a shared arena).
func (s *Server) batchEligible(kind string, cc ClassConfig, req *Request) bool {
	if cc.BatchWindow <= 0 || cc.MaxBatchSize <= 1 || req.NoBatch {
		return false
	}
	return (kind == "run" || kind == "verify") && s.checkBounds(kind, req) == nil
}

// execute runs one admitted request end to end: parse knobs, apply the
// tenant's breaker plan, compile through the tenant's cache shard, then
// run or verify as asked — as a pass of one member, through the function
// the batcher calls with N.
func (s *Server) execute(ctx context.Context, kind string, req *Request, tn *tenant, cc ClassConfig, class Class) (*Response, error) {
	p, err := s.planRequest(req, tn, cc)
	if err != nil {
		return nil, err
	}
	k, outcome, compileNs, err := compileForPlan(ctx, p, req.Source)
	if err != nil {
		return nil, err
	}
	resp := baseResponse(req, class, p, k, outcome, compileNs)
	if kind == "compile" {
		return resp, nil
	}
	if err := s.memberPass(ctx, kind, k, []*Request{req}, []*Response{resp})[0]; err != nil {
		return nil, err
	}
	return resp, nil
}

// memberPass executes the run or verify requests reqs — one solo request,
// or the members of a coalesced batch — against their shared kernel in ONE
// simulated device pass, and fills in resps[i] for every member that
// succeeded; errs[i] is member i's failure. A malformed member fails alone,
// before the pass; a pass-level failure (budget, deadline) fails every
// member that was in it.
func (s *Server) memberPass(ctx context.Context, kind string, k *chopper.Kernel, reqs []*Request, resps []*Response) (errs []error) {
	errs = make([]error, len(reqs))
	var in []int // members that go into the pass
	for i, r := range reqs {
		if errs[i] = s.checkBounds(kind, r); errs[i] == nil && kind == "run" {
			errs[i] = checkRunShape(k, r)
		}
		if errs[i] == nil {
			in = append(in, i)
		}
	}
	if len(in) == 0 {
		return errs
	}
	failAll := func(err error) []error {
		for _, i := range in {
			errs[i] = err
		}
		return errs
	}

	if kind == "run" {
		members := make([]chopper.BatchRun, len(in))
		for j, i := range in {
			members[j] = chopper.BatchRun{Inputs: reqs[i].Inputs, Lanes: reqs[i].Lanes}
		}
		outs, results, err := k.RunBatchCtx(ctx, members)
		if err != nil {
			return failAll(err)
		}
		for j, i := range in {
			resps[i].Outputs, resps[i].TimeNs = outs[j], results[j].TimeNs
		}
		return errs
	}

	// Verification runs serially inside the pass (a sweep alone runs its
	// trials on one worker): per-request fan-out would multiply one
	// admission slot into GOMAXPROCS of load.
	specs := make([]chopper.VerifySpec, len(in))
	for j, i := range in {
		specs[j] = chopper.VerifySpec{Trials: reqs[i].Trials, Seed: reqs[i].Seed}
	}
	perSpec, err := k.VerifyBatchCtx(ctx, specs)
	if err != nil {
		return failAll(err)
	}
	for j, i := range in {
		verr := perSpec[j]
		if verr != nil && chopper.ErrorClass(verr) != "verify" {
			errs[i] = verr
			continue
		}
		// A mismatch is a result, not a transport failure: 200 with
		// verify_ok=false and the discrepancy detail.
		ok := verr == nil
		resps[i].Trials, resps[i].VerifyOK = reqs[i].Trials, &ok
		if !ok {
			resps[i].VerifyDetail = verr.Error()
		}
	}
	return errs
}

// checkRunShape is the one operand-shape validator: every input present,
// one value per lane, and no operand wider than the 64 bits a JSON lane
// value carries.
func checkRunShape(k *chopper.Kernel, req *Request) error {
	for _, in := range k.Inputs {
		vals, ok := req.Inputs[in.Name]
		if !ok {
			return optionsErrf("missing input %q", in.Name)
		}
		if in.Width > 64 {
			return optionsErrf("input %q is %d bits wide; the service handles up to 64", in.Name, in.Width)
		}
		if len(vals) != req.Lanes {
			return optionsErrf("input %q has %d values, want one per lane (%d)", in.Name, len(vals), req.Lanes)
		}
	}
	for _, o := range k.Outputs {
		if o.Width > 64 {
			return optionsErrf("output %q is %d bits wide; the service handles up to 64", o.Name, o.Width)
		}
	}
	return nil
}

// parseTarget and parseOpt read a request's target and level names through
// the library's parsers; the service's own conventions stay here: an absent
// field selects the default, "full" is accepted for the top level, and a
// bad name is an options-classed (400) failure.
func parseTarget(s string) (chopper.Target, error) {
	if s == "" {
		return chopper.Ambit, nil
	}
	t, err := isa.ParseArch(s)
	if err != nil {
		return 0, optionsErrf("%v", err)
	}
	return t, nil
}

func parseOpt(s string) (chopper.OptLevel, error) {
	if s == "" || strings.EqualFold(s, "full") {
		return chopper.OptFull, nil
	}
	lv, err := obs.ParseVariant(s)
	if err != nil {
		return 0, optionsErrf("%v", err)
	}
	return lv, nil
}

// workCtx derives a request context that ends when the client goes away,
// the class deadline expires, or the server hard-cancels in-flight work
// at the drain deadline.
func (s *Server) workCtx(parent context.Context, deadline time.Duration) (context.Context, context.CancelFunc) {
	ctx, cancel := context.WithCancel(parent)
	stop := context.AfterFunc(s.baseCtx, cancel)
	if deadline > 0 {
		dctx, dcancel := context.WithTimeout(ctx, deadline)
		return dctx, func() { dcancel(); cancel(); stop() }
	}
	return ctx, func() { cancel(); stop() }
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, err error, class string) {
	status := StatusForClass(class)
	if status == http.StatusTooManyRequests || status == http.StatusServiceUnavailable {
		// Shed and drain rejections are retryable; say when.
		w.Header().Set("Retry-After", "1")
	}
	writeJSON(w, status, &ErrorResponse{Error: err.Error(), ErrorClass: class})
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	var sb strings.Builder
	s.met.render(&sb)
	for c := Class(0); c < numClasses; c++ {
		inflight, queued := s.adm[c].depths()
		fmt.Fprintf(&sb, "chopperd_inflight{class=%q} %d\n", c, inflight)
		fmt.Fprintf(&sb, "chopperd_queued{class=%q} %d\n", c, queued)
	}
	cache, nTenants, trippedTenants, levels := s.shardSnapshot()
	fmt.Fprintf(&sb, "chopperd_cache_hits_total %d\n", cache.Hits)
	fmt.Fprintf(&sb, "chopperd_cache_misses_total %d\n", cache.Misses)
	fmt.Fprintf(&sb, "chopperd_cache_dedups_total %d\n", cache.Dedups)
	fmt.Fprintf(&sb, "chopperd_cache_evictions_total %d\n", cache.Evictions)
	fmt.Fprintf(&sb, "chopperd_cache_entries %d\n", cache.Entries)
	fmt.Fprintf(&sb, "chopperd_tenants %d\n", nTenants)
	fmt.Fprintf(&sb, "chopperd_breaker_tripped_tenants %d\n", trippedTenants)
	fmt.Fprintf(&sb, "chopperd_breaker_level_sum %d\n", levels)
	draining := 0
	if s.Draining() {
		draining = 1
	}
	fmt.Fprintf(&sb, "chopperd_draining %d\n", draining)
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	w.WriteHeader(http.StatusOK)
	fmt.Fprint(w, sb.String())
}

// shardSnapshot sums the kernel-cache counters over every tenant shard,
// the overflow shard included, and counts the tenants and the tripped
// breakers with the sum of their levels.
func (s *Server) shardSnapshot() (cache chopper.CacheStats, tenants, tripped, levels int) {
	s.mu.Lock()
	shards := make([]*tenant, 0, len(s.tenants)+1)
	for _, t := range s.tenants {
		shards = append(shards, t)
	}
	shards = append(shards, s.overflow)
	tenants = len(s.tenants)
	s.mu.Unlock()
	for _, t := range shards {
		st := t.cache.Stats()
		cache.Hits += st.Hits
		cache.Misses += st.Misses
		cache.Evictions += st.Evictions
		cache.Dedups += st.Dedups
		cache.Entries += st.Entries
		if lvl, _ := t.brk.state(); lvl > 0 {
			tripped++
			levels += lvl
		}
	}
	return cache, tenants, tripped, levels
}

// CacheStats aggregates the kernel-cache counters across every tenant
// shard (read by the repo benchmark's service workloads and by tests).
func (s *Server) CacheStats() chopper.CacheStats {
	cache, _, _, _ := s.shardSnapshot()
	return cache
}

// ClassConfig returns the effective (normalized) configuration of one
// QoS class.
func (s *Server) ClassConfig(c Class) ClassConfig {
	if c < 0 || c >= numClasses {
		return ClassConfig{}
	}
	return s.cfg.Classes[c]
}

// SetNotReady flips /readyz to 503 without stopping admission — the
// pre-drain step that lets load balancers route away before the server
// starts rejecting.
func (s *Server) SetNotReady() { s.notReady.Store(true) }

// BeginDrain makes the drain irrevocable: /readyz reports 503, new
// requests are rejected with 503, queued requests are released with 503.
// In-flight requests keep running until they finish or Shutdown's hard
// deadline cancels them.
func (s *Server) BeginDrain() {
	s.drainOnce.Do(func() {
		s.notReady.Store(true)
		close(s.drainCh)
	})
}

// Draining reports whether BeginDrain has run.
func (s *Server) Draining() bool {
	select {
	case <-s.drainCh:
		return true
	default:
		return false
	}
}

// Shutdown drains the server: stop admitting, wait for in-flight
// requests, and when ctx expires first, hard-cancel the stragglers
// through the guard layer and wait for them to unwind. Returns nil on a
// clean drain, ctx.Err() when the hard deadline had to fire.
func (s *Server) Shutdown(ctx context.Context) error {
	s.BeginDrain()
	tick := time.NewTicker(2 * time.Millisecond)
	defer tick.Stop()
	for s.inflight.Load() != 0 {
		select {
		case <-ctx.Done():
			// Hard drain: cancel in-flight work. Guard checkpoints run
			// between micro-ops and pipeline stages, so this lands fast;
			// bound the unwind wait anyway.
			s.baseCancel()
			unwind := time.After(10 * time.Second)
			for s.inflight.Load() != 0 {
				select {
				case <-unwind:
					return fmt.Errorf("serve: %d requests still in flight after hard cancel: %w", s.inflight.Load(), ctx.Err())
				case <-tick.C:
				}
			}
			return ctx.Err()
		case <-tick.C:
		}
	}
	return nil
}

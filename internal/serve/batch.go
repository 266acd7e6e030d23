package serve

// Request batching: run/verify requests that share a compatibility key
// (everything that selects the compiled kernel and the execution
// semantics — kind, class, target, effective opt level, pipeline,
// hardening, entry, source) collect in a per-key batch for up to the
// class's BatchWindow, then execute as ONE coalesced simulated device
// pass. The pass compiles once through the leader's cache shard,
// concatenates every member's operand lanes into word-aligned spans of
// one shared arena, runs the micro-op stream once, and demultiplexes
// each member's output slice — byte-identical to the member's solo run
// (pinned by chopper's batch tests and this package's identity tests).
// This file is the window, the membership and the delivery; the pass
// itself is Server.memberPass in serve.go, the same function a solo
// request runs through with one member.
//
// Admission: the executor goroutine holds exactly ONE admission slot
// for the whole pass, which is the throughput win — N requests spend
// one inflight token. The slot is acquired with a nil drain channel so
// a drain flushes open windows (members get answers) instead of
// rejecting them; the window select also wakes on drainCh so the flush
// is prompt.
//
// Deadlines: the batch window never extends a request's life. Members
// keep racing their own class-deadline contexts while the window is
// open and withdraw with the standard 408 if the deadline lands first;
// once the pass starts executing, withdrawal is over and the member
// gets the pass's result.
//
// Tenancy: the key deliberately omits the tenant, so identical requests
// from different tenants coalesce (their breaker levels must agree for
// the keys to match, since the key includes the effective opt level and
// pipeline). The compile goes through the first member's cache shard;
// per-member breaker accounting still happens on each member's own
// breaker in finishWork.

import (
	"context"
	"fmt"
	"sync"
	"time"

	"chopper"
	"chopper/internal/guard"
	"chopper/internal/transpose"
)

// batcher indexes the open (still-joinable) batches by compatibility
// key. Lock ordering: batcher.mu before svcBatch.mu.
type batcher struct {
	mu   sync.Mutex
	open map[batchKey]*svcBatch
}

// batchMember is one request waiting inside a batch. The handler
// goroutine blocks on done; the executor fills resp/err/executed and
// closes it.
type batchMember struct {
	req  *Request
	plan *reqPlan
	ctx  context.Context
	done chan struct{}

	// Result fields, written by the executor before close(done).
	resp     *Response
	err      error
	executed bool

	delivered bool // executor-only guard against double delivery
	gone      bool // withdrew before execution; guarded by svcBatch.mu
}

// svcBatch is one forming-or-executing coalesced pass.
type svcBatch struct {
	key   batchKey
	kind  string
	class Class

	window    *time.Timer
	execCtx   context.Context
	cancelAll context.CancelFunc

	mu        sync.Mutex
	members   []*batchMember
	live      int // members not yet withdrawn
	laneWords int // combined operand words across members
	sealed    bool
	executing bool
	full      chan struct{} // closed when the batch reaches MaxBatchSize
}

// batchKey is everything that must agree for two requests to share one
// compiled kernel and one device pass; the struct itself indexes the open
// batches, so a part added here cannot be left out of the comparison.
type batchKey struct {
	kind     string
	class    Class
	target   chopper.Target
	effOpt   chopper.OptLevel
	baseline bool
	harden   bool
	entry    string
	source   string
}

func keyOf(kind string, class Class, p *reqPlan, req *Request) batchKey {
	return batchKey{kind, class, p.target, p.effOpt, p.baseline, p.opts.Harden, req.Entry, req.Source}
}

// runBatched is the member side of a coalesced execution: join (or
// open) the batch for this request's key, then wait for the executor —
// still racing the request's own deadline, which the window never
// extends. The bool result mirrors finishWork's executed flag.
func (s *Server) runBatched(ctx context.Context, kind string, req *Request, plan *reqPlan, tn *tenant, cc ClassConfig, class Class) (*Response, bool, error) {
	m := &batchMember{req: req, plan: plan, ctx: ctx, done: make(chan struct{})}
	b := s.joinBatch(kind, class, cc, m)
	select {
	case <-m.done:
	case <-ctx.Done():
		if b.withdraw(m) {
			// Left the window before execution began: the deadline (or
			// client cancel) wins, exactly as it would in the queue.
			return nil, false, guard.Ctx(ctx)
		}
		// Execution already started; the pass's result is moments away.
		<-m.done
	}
	return m.resp, m.executed, m.err
}

// joinBatch adds m to the open batch for its key, sealing full batches,
// or opens a fresh batch (and its executor goroutine) when none fits.
func (s *Server) joinBatch(kind string, class Class, cc ClassConfig, m *batchMember) *svcBatch {
	key := keyOf(kind, class, m.plan, m.req)
	// The operand words m adds to the shared arena: its lane span for a
	// run, the sum of its trials' lane spans for a verify sweep. Only the
	// field batchEligible bounded for this kind is read: a run's Trials is
	// whatever the client sent.
	words := transpose.Words(m.req.Lanes)
	if kind == "verify" {
		words = chopper.VerifySpanWords(m.req.Trials)
	}
	s.bat.mu.Lock()
	defer s.bat.mu.Unlock()
	if b, ok := s.bat.open[key]; ok {
		b.mu.Lock()
		if !b.sealed && len(b.members) < cc.MaxBatchSize && b.laneWords+words <= s.laneWordCap {
			b.members = append(b.members, m)
			b.live++
			b.laneWords += words
			if len(b.members) >= cc.MaxBatchSize {
				// Full: execute now instead of waiting out the window.
				b.sealed = true
				close(b.full)
				delete(s.bat.open, key)
			}
			b.mu.Unlock()
			return b
		}
		// No room (size, lane capacity, or already sealed): let the
		// existing batch run with what it has and open a fresh one.
		if !b.sealed {
			b.sealed = true
			close(b.full)
		}
		b.mu.Unlock()
		delete(s.bat.open, key)
	}
	execCtx, cancel := context.WithCancel(s.baseCtx)
	b := &svcBatch{
		key:       key,
		kind:      kind,
		class:     class,
		window:    time.NewTimer(cc.BatchWindow),
		execCtx:   execCtx,
		cancelAll: cancel,
		members:   []*batchMember{m},
		live:      1,
		laneWords: words,
		full:      make(chan struct{}),
	}
	s.bat.open[key] = b
	// Counted before it starts: a member may withdraw and return before
	// the executor runs, and Shutdown must still wait for it.
	s.inflight.Add(1)
	go s.batchExec(b)
	return b
}

// withdraw removes a member whose context ended while the window was
// open. It reports false once execution has begun (the member must wait
// for the pass result instead). The last member to leave cancels the
// executor so an empty batch does not hold its admission slot for the
// rest of the window.
func (b *svcBatch) withdraw(m *batchMember) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.executing || m.gone {
		return false
	}
	m.gone = true
	b.live--
	if b.live == 0 {
		b.sealed = true
		b.cancelAll()
	}
	return true
}

// detach removes the batch from the open index and seals it, so late
// arrivals open a fresh batch instead of joining one that is executing.
func (b *svcBatch) detach(s *Server) {
	s.bat.mu.Lock()
	if s.bat.open[b.key] == b {
		delete(s.bat.open, b.key)
	}
	s.bat.mu.Unlock()
	b.mu.Lock()
	b.sealed = true
	b.mu.Unlock()
}

// beginExecute closes the withdrawal window and snapshots the members
// still waiting.
func (b *svcBatch) beginExecute() []*batchMember {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.executing = true
	live := make([]*batchMember, 0, len(b.members))
	for _, m := range b.members {
		if !m.gone {
			live = append(live, m)
		}
	}
	return live
}

// deliver hands one member its result and releases its handler. Only
// the executor goroutine calls it, so the delivered guard needs no
// extra lock.
func (b *svcBatch) deliver(m *batchMember, resp *Response, executed bool, err error) {
	if m.delivered {
		return
	}
	m.delivered = true
	m.resp, m.executed, m.err = resp, executed, err
	close(m.done)
}

// deliverErr fails every undelivered member with one error.
func (b *svcBatch) deliverErr(err error, executed bool) {
	for _, m := range b.beginExecute() {
		b.deliver(m, nil, executed, err)
	}
}

// batchExec is the executor goroutine: hold one admission slot, wait
// for the batch to fill / the window to close / a drain to flush it,
// then run the coalesced pass and deliver every member's result.
func (s *Server) batchExec(b *svcBatch) {
	defer s.inflight.Add(-1)
	defer b.cancelAll()
	defer func() {
		if rec := recover(); rec != nil {
			s.met.panicked()
			b.deliverErr(&reqError{class: "internal", msg: fmt.Sprintf("internal: batch executor: %v", rec)}, true)
		}
	}()

	// One slot for the whole pass. The nil drain channel is deliberate:
	// a drain must flush open batches (members get answers before
	// shutdown), not reject them — the select below wakes on drainCh.
	if err := s.adm[b.class].acquire(b.execCtx, nil); err != nil {
		b.detach(s)
		b.window.Stop()
		b.deliverErr(err, false)
		return
	}
	defer s.adm[b.class].release()

	select {
	case <-b.full:
	case <-b.window.C:
	case <-s.drainCh:
	case <-b.execCtx.Done():
	}
	b.window.Stop()
	b.detach(s)

	members := b.beginExecute()
	if len(members) == 0 {
		// Everyone withdrew (deadlines beat the window); nothing to run.
		return
	}
	s.runBatchPass(b, members)
}

// runBatchPass compiles once and executes the coalesced device pass,
// delivering per-member responses.
func (s *Server) runBatchPass(b *svcBatch, members []*batchMember) {
	occupancy := len(members)
	s.met.batchExecuted(b.class, occupancy)
	for range members {
		s.met.admitted(b.class)
	}

	// The pass runs under the latest member deadline: no member's
	// deadline is extended past what the slowest co-member already has,
	// and the guard layer still classifies an expiry as "deadline" for
	// everyone left in the pass.
	runCtx := b.execCtx
	latest := time.Time{}
	allHave := true
	for _, m := range members {
		if d, ok := m.ctx.Deadline(); ok {
			if d.After(latest) {
				latest = d
			}
		} else {
			allHave = false
		}
	}
	if allHave {
		var cancel context.CancelFunc
		runCtx, cancel = context.WithDeadline(b.execCtx, latest)
		defer cancel()
	}

	lead := members[0]
	k, outcome, compileNs, err := compileForPlan(runCtx, lead.plan, lead.req.Source)
	if err != nil {
		b.deliverErr(err, true)
		return
	}

	reqs, resps := make([]*Request, occupancy), make([]*Response, occupancy)
	for i, m := range members {
		reqs[i] = m.req
		resps[i] = baseResponse(m.req, b.class, m.plan, k, outcome, compileNs)
		resps[i].BatchSize = occupancy
	}
	for i, err := range s.memberPass(runCtx, b.kind, k, reqs, resps) {
		b.deliver(members[i], resps[i], true, err) // finishWork reads err first
	}
}

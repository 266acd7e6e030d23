package chopper

import (
	"context"
	"strings"

	"chopper/internal/kcache"
)

// CacheStats is a snapshot of a KernelCache's hit/miss/eviction counters.
type CacheStats = kcache.Stats

// KernelCache is a bounded cache of compiled kernels keyed on (pipeline,
// normalized source, the Options value), so a repeat Compile of the same
// program costs a map lookup instead of the DSL -> bitslice -> OBS ->
// codegen pipeline. Kernels are immutable after compilation and the cache
// is safe for concurrent use, so one cache can serve every goroutine of a
// server.
//
// Attach a cache via Options.Cache.
type KernelCache struct {
	c *kcache.Cache[kernelKey, *Kernel]
}

// kernelKey is what two compiles must agree on to be the same compile. The
// Options value is the key as it stands (normalized, its Cache pointer
// cleared), so a field added to Options is part of the key by construction.
type kernelKey struct {
	pipeline pipeline
	src      string // normalizeSource'd
	opts     Options
}

// newKernelKey keys one compile; opts must already be normalized.
func newKernelKey(p pipeline, src string, opts Options) kernelKey {
	opts.Cache = nil
	return kernelKey{p, normalizeSource(src), opts}
}

// NewKernelCache creates a cache bounded to maxEntries compiled kernels
// (<= 0 means kcache.DefaultEntries). Eviction is LRU.
func NewKernelCache(maxEntries int) *KernelCache {
	return &KernelCache{c: kcache.New[kernelKey, *Kernel](maxEntries)}
}

// Stats returns the cache counters (hits, misses, evictions, entries).
func (kc *KernelCache) Stats() CacheStats { return kc.c.Stats() }

// normalizeSource canonicalizes source text for the cache key: CRLF
// becomes LF and trailing whitespace (per line and surrounding) is
// dropped, so formatting-only differences still hit.
func normalizeSource(src string) string {
	src = strings.ReplaceAll(src, "\r\n", "\n")
	lines := strings.Split(src, "\n")
	for i, l := range lines {
		lines[i] = strings.TrimRight(l, " \t")
	}
	return strings.TrimSpace(strings.Join(lines, "\n"))
}

// CacheOutcome reports how a compile interacted with Options.Cache:
// served from the cache, deduplicated onto another goroutine's in-flight
// compile of the same key, or compiled fresh. Its String is "none", "miss",
// "hit" or "shared".
type CacheOutcome = kcache.Outcome

const (
	// CacheNone means no cache was attached (Options.Cache == nil).
	CacheNone = kcache.None
	// CacheMiss means this call ran the compile pipeline itself (and, on
	// success, populated the cache).
	CacheMiss = kcache.Miss
	// CacheHit means the kernel was already resident.
	CacheHit = kcache.Hit
	// CacheShared means this call joined a concurrent identical compile
	// already in flight and shared its result without compiling.
	CacheShared = kcache.Shared
)

// CompileCtxCached is Compile with everything said. Under the guard layer a
// non-nil ctx is observed at pipeline checkpoints (including inside codegen
// emission), so a canceled or deadline-expired context stops the compile
// promptly with ErrCanceled/ErrDeadline; Options.Budget is enforced at the
// same checkpoints, and a nil ctx disables the cancellation checks. The
// outcome reports how the kernel cache served the call — servers surface it
// per request (chopperd's responses carry it, and its hit-rate metrics are
// built from it); with no cache attached it is CacheNone.
func CompileCtxCached(ctx context.Context, src string, opts Options) (*Kernel, CacheOutcome, error) {
	return compile(ctx, pipeChopper, src, nil, opts)
}

// CompileBaselineCached is CompileBaseline under the guard layer, reporting
// the cache outcome (see CompileCtxCached).
func CompileBaselineCached(ctx context.Context, src string, opts Options) (*Kernel, CacheOutcome, error) {
	return compile(ctx, pipeBaseline, src, nil, opts)
}

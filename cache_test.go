package chopper

import (
	"reflect"
	"sync"
	"testing"
	"time"

	"chopper/internal/dram"
)

const cacheSrc = `
node main(a: u8, b: u8) returns (s: u8)
  let s = a + b;
tel`

func TestCacheHitReturnsSameKernel(t *testing.T) {
	c := NewKernelCache(8)
	opts := Options{Target: Ambit, Cache: c}
	k1, err := Compile(cacheSrc, opts)
	if err != nil {
		t.Fatal(err)
	}
	k2, err := Compile(cacheSrc, opts)
	if err != nil {
		t.Fatal(err)
	}
	if k1 != k2 {
		t.Fatal("repeat compile did not return the cached *Kernel")
	}
	s := c.Stats()
	if s.Hits != 1 || s.Misses != 1 || s.Entries != 1 {
		t.Fatalf("counters %+v, want 1 hit / 1 miss / 1 entry", s)
	}
	// A cached kernel is fully usable.
	if err := k2.Verify(2, 9); err != nil {
		t.Fatal(err)
	}
}

// TestCacheKeyCoversOptions walks Options by reflection: the key is the
// Options value, so every leaf field — nested Geometry, Budget and Recovery
// included, and any field added later — must split the cache when it alone
// changes to another valid value. The base sets every field explicitly to a
// value whose successor is valid too, so the walk needs no per-field table.
func TestCacheKeyCoversOptions(t *testing.T) {
	geom := dram.DefaultGeometry()
	geom.Channels = 1
	opts := Options{
		Target:   Ambit,
		Geometry: geom,
		Budget:   Budget{MaxMicroOps: 1 << 30, MaxDRAMCommands: 1 << 30, MaxNetGates: 1 << 30, MaxSimSteps: 1 << 30},
		Recovery: Recovery{Detector: DetectorParity, EpochUops: 128, MaxRetries: 2, Backoff: time.Microsecond},
	}.WithOpt(OptReuse)
	compile := func(what string) *Kernel {
		t.Helper()
		k, err := Compile(cacheSrc, opts)
		if err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		return k
	}

	leaves := 0
	var walk func(v reflect.Value, path string)
	walk = func(v reflect.Value, path string) {
		for i := 0; i < v.NumField(); i++ {
			f, name := v.Field(i), path+v.Type().Field(i).Name
			switch {
			case name == "Cache":
				continue
			case f.Kind() == reflect.Struct:
				walk(f, name+".")
				continue
			}
			leaves++
			// A cache per leaf: the base entry, then the field alone changed.
			opts.Cache = NewKernelCache(4)
			base := compile("base")
			old := reflect.New(f.Type()).Elem()
			old.Set(f)
			switch f.Kind() {
			case reflect.Bool:
				f.SetBool(!f.Bool())
			case reflect.String:
				f.SetString("main") // the entry "" resolves to: the same kernel from another Options value
			case reflect.Int, reflect.Int64:
				f.SetInt(f.Int() + 1)
			default:
				t.Fatalf("Options.%s: no perturbation for kind %s; teach this test one", name, f.Kind())
			}
			k := compile(name)
			if got := opts.Cache.Stats().Entries; got != 2 || k == base {
				t.Errorf("Options.%s: changing it alone did not get its own cache entry (%d entries, want 2)", name, got)
			}
			if compile(name+" again") != k {
				t.Errorf("Options.%s: the repeat compile missed", name)
			}
			f.Set(old)
			if compile("base again") != base {
				t.Errorf("Options.%s: restoring it does not hit the base entry", name)
			}
		}
	}
	walk(reflect.ValueOf(&opts).Elem(), "")
	t.Logf("%d leaf fields of Options join the key", leaves)

	// The Cache pointer alone is not part of the key.
	elsewhere := opts.normalize()
	elsewhere.Cache = NewKernelCache(1)
	if newKernelKey(pipeChopper, cacheSrc, opts.normalize()) != newKernelKey(pipeChopper, cacheSrc, elsewhere) {
		t.Error("two Options differing only in Cache have different keys")
	}

	// Nor do two pipelines share an entry for one (source, Options) pair.
	const bitwise = "node main(a: u8, b: u8) returns (s: u8) let s = a ^ b; tel"
	opts.Cache, opts.Recovery = NewKernelCache(4), Recovery{}
	for _, compile := range []func(string, Options) (*Kernel, error){Compile, CompileBaseline, CompileHorizontal} {
		if _, err := compile(bitwise, opts); err != nil {
			t.Fatal(err)
		}
	}
	if got := opts.Cache.Stats().Entries; got != 3 {
		t.Errorf("the three pipelines made %d entries of one (source, Options) pair, want 3", got)
	}
}

func TestCacheNormalizesSource(t *testing.T) {
	c := NewKernelCache(8)
	opts := Options{Target: Ambit, Cache: c}
	k1, err := Compile("node main(a: u8) returns (z: u8) let z = a + 1; tel", opts)
	if err != nil {
		t.Fatal(err)
	}
	// CRLF line endings and trailing whitespace hit the same entry.
	k2, err := Compile("node main(a: u8) returns (z: u8) let z = a + 1; tel \r\n", opts)
	if err != nil {
		t.Fatal(err)
	}
	if k1 != k2 {
		t.Error("formatting-only difference missed the cache")
	}
}

func TestCacheFailedCompileNotCached(t *testing.T) {
	c := NewKernelCache(8)
	opts := Options{Target: Ambit, Cache: c}
	if _, err := Compile("not a program", opts); err == nil {
		t.Fatal("bad program compiled")
	}
	if s := c.Stats(); s.Entries != 0 {
		t.Fatalf("failed compile left %d cache entries", s.Entries)
	}
}

func TestCacheConcurrentCompile(t *testing.T) {
	// Server shape: many goroutines compiling the same few sources through
	// the shared cache. Checked further by `go test -race`.
	c := NewKernelCache(4)
	srcs := []string{
		"node main(a: u8) returns (z: u8) let z = a + 1; tel",
		"node main(a: u8) returns (z: u8) let z = a - 1; tel",
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				k, err := Compile(srcs[(g+i)%len(srcs)], Options{Target: Ambit, Cache: c})
				if err != nil {
					t.Error(err)
					return
				}
				if _, err := k.Run(map[string][]uint64{"a": {uint64(i)}}, 1); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	s := c.Stats()
	if s.Hits == 0 {
		t.Fatalf("no cache hits across 80 compiles of 2 sources: %+v", s)
	}
}

// TestCacheSingleflightCompile pins the thundering-herd contract at the
// chopper level: N goroutines compiling the identical (source, Options)
// pair through one shared cache perform exactly one pipeline run — the
// duplicated work VerifyCtx-style fan-outs used to do — and all
// share the same *Kernel. The accounting identity (1 miss, N-1
// hits+dedups) holds for every interleaving, so the test is exact, not
// probabilistic.
func TestCacheSingleflightCompile(t *testing.T) {
	const n = 12
	c := NewKernelCache(8)
	// A 16-bit multiply compiles slowly enough that concurrent callers
	// genuinely overlap; correctness does not depend on it.
	src := "node main(a: u16, b: u16) returns (z: u16) let z = a * b; tel"
	opts := Options{Target: Ambit, Cache: c}
	kernels := make([]*Kernel, n)
	var start, wg sync.WaitGroup
	start.Add(n)
	for g := 0; g < n; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			start.Done()
			start.Wait() // fire together
			k, err := Compile(src, opts)
			if err != nil {
				t.Error(err)
				return
			}
			kernels[g] = k
		}(g)
	}
	wg.Wait()
	for g := 1; g < n; g++ {
		if kernels[g] != kernels[0] {
			t.Fatalf("goroutine %d got a different *Kernel", g)
		}
	}
	s := c.Stats()
	if s.Misses != 1 {
		t.Fatalf("%d pipeline runs for %d identical concurrent compiles, want exactly 1 (stats %+v)", s.Misses, n, s)
	}
	if s.Hits+s.Dedups != n-1 {
		t.Fatalf("accounting drift: %+v, want hits+dedups = %d", s, n-1)
	}
}

// TestCacheOutcomeReporting pins the CacheOutcome values the server
// surfaces per request.
func TestCacheOutcomeReporting(t *testing.T) {
	c := NewKernelCache(8)
	opts := Options{Target: Ambit, Cache: c}
	if _, out, err := CompileCtxCached(nil, cacheSrc, opts); err != nil || out != CacheMiss {
		t.Fatalf("first compile outcome %v (err %v), want miss", out, err)
	}
	if _, out, err := CompileCtxCached(nil, cacheSrc, opts); err != nil || out != CacheHit {
		t.Fatalf("repeat compile outcome %v (err %v), want hit", out, err)
	}
	if _, out, err := CompileCtxCached(nil, cacheSrc, Options{Target: Ambit}); err != nil || out != CacheNone {
		t.Fatalf("cache-less compile outcome %v (err %v), want none", out, err)
	}
	if _, out, err := CompileBaselineCached(nil, cacheSrc, opts); err != nil || out != CacheMiss {
		t.Fatalf("baseline compile outcome %v (err %v), want miss (own pipeline key)", out, err)
	}
}

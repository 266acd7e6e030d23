package chopper_test

// Determinism of the compiler under concurrency: compiles running at the
// same time, each on its own workspace from the free list, must emit
// byte-identical programs, and so must a cache-carrying compile (which
// takes the kernel cache's single-flight path). CI runs this under -race
// with -cpu 1,4.

import (
	"fmt"
	"sync"
	"testing"

	"chopper"
	"chopper/internal/workloads"
)

// TestDeterminismConcurrentCompile compiles DiffGen-64 (128 independent
// DFG components) eight times concurrently and once through a kernel cache,
// and requires every emitted program to equal a lone compile's.
func TestDeterminismConcurrentCompile(t *testing.T) {
	spec, ok := workloads.Get("DiffGen-64")
	if !ok {
		t.Fatal("unknown workload DiffGen-64")
	}
	for _, opt := range []chopper.OptLevel{chopper.OptBitslice, chopper.OptFull} {
		t.Run(fmt.Sprint(opt), func(t *testing.T) {
			ref, err := chopper.Compile(spec.Src, chopper.Options{Target: chopper.Ambit}.WithOpt(opt))
			if err != nil {
				t.Fatal(err)
			}
			want := ref.Prog().Format()

			cached, err := chopper.Compile(spec.Src, chopper.Options{
				Target: chopper.Ambit,
				Cache:  chopper.NewKernelCache(4),
			}.WithOpt(opt))
			if err != nil {
				t.Fatal(err)
			}
			if got := cached.Prog().Format(); got != want {
				t.Fatal("a cache-carrying compile differs from a lone compile")
			}

			var wg sync.WaitGroup
			errs := make([]error, 8)
			for i := range errs {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					k, err := chopper.Compile(spec.Src, chopper.Options{Target: chopper.Ambit}.WithOpt(opt))
					if err != nil {
						errs[i] = err
						return
					}
					if got := k.Prog().Format(); got != want {
						errs[i] = fmt.Errorf("concurrent compile %d differs from a lone compile (%d vs %d bytes)", i, len(got), len(want))
					}
				}(i)
			}
			wg.Wait()
			for _, err := range errs {
				if err != nil {
					t.Fatal(err)
				}
			}
		})
	}
}

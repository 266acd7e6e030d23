// chopperload is a deterministic seeded open-loop load generator for
// chopperd. It drives a fixed request schedule (class mix, tenant
// spread, workload mix and operands all derived from -seed), optionally
// follows the steady phase with a forced-overload burst, and reports
// per-phase p50/p99/p999 latency, shed rate and cache hit rate.
//
//	chopperload -addr http://127.0.0.1:8479 -qps 100 -duration 5s \
//	    -overload-qps 400 -overload-duration 2s
//
// With -json the serve.LoadReport itself is printed instead of the
// per-phase summary lines.
//
// Exit status: 0 on success, 1 on usage or transport-level failure,
// 2 when -fail-on-5xx is set and the server returned any 5xx other than
// the 503 drain rejection — the CI overload assertion that sheds are
// deterministic 429s, never internal errors.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"os"
	"time"

	"chopper/internal/serve"
)

func main() {
	addr := flag.String("addr", "http://127.0.0.1:8479", "chopperd base URL")
	seed := flag.Int64("seed", 1, "request-schedule seed")
	qps := flag.Float64("qps", 100, "steady-phase offered load")
	duration := flag.Duration("duration", 5*time.Second, "steady-phase length")
	overQPS := flag.Float64("overload-qps", 0, "overload-phase offered load (0 disables the phase)")
	overDur := flag.Duration("overload-duration", 0, "overload-phase length")
	homogQPS := flag.Float64("homogeneous-qps", 0,
		"same-key phase offered load, run once with batching opted out and once allowed (0 disables; point at a chopperd with -batch-window)")
	homogDur := flag.Duration("homogeneous-duration", 0, "same-key phase length (each of the two passes)")
	lanes := flag.Int("lanes", 8, "SIMD lanes for run requests")
	tenants := flag.Int("tenants", 4, "tenant spread")
	failOn5xx := flag.Bool("fail-on-5xx", false, "exit 2 if any phase saw a 5xx other than 503-draining")
	jsonOut := flag.Bool("json", false, "print the full report as JSON")
	flag.Parse()

	// Default Transport keeps only 2 idle conns per host; an open-loop
	// burst through it degenerates into dial churn that throttles the
	// offered load before it reaches the server. Pool enough conns for
	// the generator's full outstanding window.
	transport := http.DefaultTransport.(*http.Transport).Clone()
	transport.MaxIdleConns = 512
	transport.MaxIdleConnsPerHost = 512
	target := serve.HTTPTarget{BaseURL: *addr, Client: &http.Client{
		Timeout:   60 * time.Second,
		Transport: transport,
	}}
	report, err := serve.RunLoad(context.Background(), target, serve.LoadConfig{
		Seed:                *seed,
		QPS:                 *qps,
		Duration:            *duration,
		OverloadQPS:         *overQPS,
		OverloadDuration:    *overDur,
		HomogeneousQPS:      *homogQPS,
		HomogeneousDuration: *homogDur,
		Lanes:               *lanes,
		Tenants:             *tenants,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "chopperload: %v\n", err)
		os.Exit(1)
	}

	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		enc.Encode(report)
	} else {
		for _, p := range report.Phases {
			fmt.Printf("%-8s offered %.0f qps  achieved %.1f qps (ok %.1f)  requests %d  ok %d  shed %d (%.1f%%)  5xx %d  transport %d\n",
				p.Name, p.OfferedQPS, p.AchievedQPS, p.OKQPS, p.Requests, p.OK, p.Shed, 100*p.ShedRate, p.ServerErrors, p.TransportErrors)
			fmt.Printf("         p50 %s  p99 %s  p999 %s  interactive-p99 %s  cache-hit %.1f%%  degraded %d\n",
				time.Duration(p.P50Ns), time.Duration(p.P99Ns), time.Duration(p.P999Ns),
				time.Duration(p.InteractiveP99Ns), 100*p.CacheHitRate, p.Degraded)
			if p.MeanBatchSize > 0 {
				fmt.Printf("         mean batch size %.2f\n", p.MeanBatchSize)
			}
		}
	}

	if *failOn5xx {
		for _, p := range report.Phases {
			if p.ServerErrors > 0 {
				fmt.Fprintf(os.Stderr, "chopperload: phase %s saw %d server errors (want 0: overload must shed with 429, not fail with 5xx)\n",
					p.Name, p.ServerErrors)
				os.Exit(2)
			}
			if p.TransportErrors > 0 {
				fmt.Fprintf(os.Stderr, "chopperload: phase %s saw %d transport errors\n", p.Name, p.TransportErrors)
				os.Exit(2)
			}
		}
	}
}

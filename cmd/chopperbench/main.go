// Command chopperbench regenerates the paper's evaluation tables and
// figures (Section VIII) on the simulated infrastructure.
//
// Usage:
//
//	chopperbench [-exp all|table1|table2|table3|fig9|fig9summary|fig10|fig11|fig12|emission|energy|ssd]
//	             [-quick] [-format table|csv]
//
// -quick restricts the run to one small configuration per domain (useful
// for smoke tests); the full set is all 16 Table II workloads. An unknown
// -exp or -format value is rejected with exit status 2.
package main

import (
	"flag"
	"fmt"
	"os"
	"slices"
	"strings"
	"time"

	"chopper/internal/bench"
)

func main() {
	exp := flag.String("exp", "all", "experiment: all, table1, table2, table3, fig9, fig9summary, fig10, fig11, fig12, emission, energy, ssd")
	quick := flag.Bool("quick", false, "run only one small configuration per domain")
	format := flag.String("format", "table", "output format: table or csv")
	flag.Parse()

	sel := bench.AllWorkloads()
	if *quick {
		sel = bench.QuickWorkloads()
	}
	h := bench.NewHarness()

	// In output order; an entry is a fixed text table or a measured one.
	experiments := []struct {
		name string
		text func() string
		run  func() (*bench.Table, error)
	}{
		{name: "table1", text: bench.Table1},
		{name: "table2", text: bench.Table2},
		{name: "fig9", run: func() (*bench.Table, error) { return h.Fig9(sel) }},
		{name: "fig9summary", run: func() (*bench.Table, error) { return h.Fig9Speedups(sel) }},
		{name: "table3", run: h.Table3},
		{name: "fig10", run: func() (*bench.Table, error) { return h.Fig10(sel) }},
		{name: "fig11", run: func() (*bench.Table, error) { return h.Fig11(sel) }},
		{name: "fig12", run: func() (*bench.Table, error) { return h.Fig12(sel) }},
		{name: "emission", run: func() (*bench.Table, error) { return h.EmissionStudy(sel) }},
		{name: "energy", run: func() (*bench.Table, error) { return h.EnergyStudy(sel) }},
		{name: "ssd", run: h.SSDStudy},
	}
	valid := []string{"all"}
	for _, e := range experiments {
		valid = append(valid, e.name)
	}
	if !slices.Contains(valid, *exp) {
		usage(fmt.Sprintf("unknown -exp %q (valid: %s)", *exp, strings.Join(valid, ", ")))
	}
	if *format != "table" && *format != "csv" {
		usage(fmt.Sprintf("unknown -format %q (valid: table, csv)", *format))
	}

	for _, e := range experiments {
		// -exp fig9 prints the figure and its summary.
		if *exp != "all" && *exp != e.name && !(*exp == "fig9" && e.name == "fig9summary") {
			continue
		}
		if e.text != nil {
			fmt.Println(e.text())
			continue
		}
		t0 := time.Now()
		t, err := e.run()
		if err != nil {
			fmt.Fprintf(os.Stderr, "chopperbench: %s: %v\n", e.name, err)
			os.Exit(1)
		}
		if *format == "csv" {
			fmt.Printf("# %s\n%s\n", t.Title, t.CSV())
		} else {
			fmt.Println(t.Render())
			fmt.Printf("[%s completed in %v]\n\n", e.name, time.Since(t0).Round(time.Millisecond))
		}
	}
}

// usage reports a bad flag value the way the flag package reports a bad
// flag: one line on stderr, exit status 2.
func usage(msg string) {
	fmt.Fprintln(os.Stderr, "chopperbench:", msg)
	os.Exit(2)
}

package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"text/tabwriter"
)

// -compare applies the bounds of the end-to-end metrics to two result
// files (each any number of -out records, several runs per workload for a
// spread): one row per workload and metric with both medians, the ratio
// and its base, and a verdict. It is the tool for the repeatability
// criterion (the same code twice) and for every parent-versus-change
// comparison.

func readRecords(path string) ([]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var recs []record
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<24)
	for sc.Scan() {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var r record
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		recs = append(recs, r)
	}
	return recs, sc.Err()
}

// samples collects a metric's values over a file's valid untraced runs of
// one workload.
func samples(recs []record, workload, metric string) []float64 {
	var xs []float64
	for i := range recs {
		r := &recs[i]
		if r.Workload != workload || r.Trace != 0 || r.Invalid != "" {
			continue
		}
		if v, ok := r.Metrics[metric]; ok {
			xs = append(xs, v.Value)
		}
	}
	return xs
}

// verdict judges b against a for one metric. worse: b's median is worse
// than a's by more than the bound. unresolved: it is not, but either
// side's own spread is wider than the bound, so "no regression" would be
// a claim the data cannot carry - unless every run of b reads better than
// every run of a.
func verdict(spec metricSpec, a, b []float64) string {
	ma, mb := median(a), median(b)
	worseBy := (mb - ma) / ma
	if spec.Better == "higher" {
		worseBy = (ma - mb) / ma
	}
	if worseBy > spec.Bound {
		return "worse"
	}
	if spread(a) > spec.Bound || spread(b) > spec.Bound {
		allBetter := true
		for _, x := range b {
			for _, y := range a {
				if (spec.Better == "lower" && x >= y) || (spec.Better == "higher" && x <= y) {
					allBetter = false
				}
			}
		}
		if !allBetter {
			return "unresolved"
		}
	}
	return "ok"
}

func compareFiles(pathA, pathB string, stdout, stderr io.Writer) int {
	a, err := readRecords(pathA)
	if err == nil && len(a) == 0 {
		err = fmt.Errorf("%s: no records", pathA)
	}
	var b []record
	if err == nil {
		b, err = readRecords(pathB)
	}
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %v\n", err)
		return 2
	}
	tw := tabwriter.NewWriter(stdout, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tclock\ta (base)\tb\tb/a\truns a/b\tspread a\tspread b\tbound\tverdict")
	code := 0
	for _, w := range workloadSpecs {
		for _, spec := range endToEndSpecs {
			xa, xb := samples(a, w.Name, spec.Name), samples(b, w.Name, spec.Name)
			if len(xa) == 0 || len(xb) == 0 {
				continue
			}
			v := verdict(spec, xa, xb)
			if v == "worse" {
				code = 1
			}
			fmt.Fprintf(tw, "%s\t%s\t%s\t%.6g\t%.6g\t%.4f\t%d/%d\t%.4f\t%.4f\t%.2g\t%s\n",
				w.Name, spec.Name, spec.Clock, median(xa), median(xb), median(xb)/median(xa), len(xa), len(xb), spread(xa), spread(xb), spec.Bound, v)
		}
		fa, na := failures(a, w.Name)
		fb, nb := failures(b, w.Name)
		if na > 0 && nb > 0 {
			v := "ok"
			if float64(fb)/float64(nb) > float64(fa)/float64(na)+0.002 {
				v, code = "worse", 1
			}
			fmt.Fprintf(tw, "%s\tfail_share\t-\t%d/%d\t%d/%d\t\t\t\t\t+0.002\t%s\n", w.Name, fa, na, fb, nb, v)
		}
	}
	if err := tw.Flush(); err != nil {
		fmt.Fprintf(stderr, "benchmark: %v\n", err)
		return 2
	}
	return code
}

// failures sums failed and attempted ops over a file's untraced runs of a
// workload.
func failures(recs []record, workload string) (failed, attempted int) {
	for i := range recs {
		if r := &recs[i]; r.Workload == workload && r.Trace == 0 {
			failed += r.Failed
			attempted += r.Attempted
		}
	}
	return failed, attempted
}

package main

import (
	"encoding/json"
	"os"
	"reflect"
	"regexp"
	"testing"
)

// benchmarkJSON mirrors BENCHMARK.json, the driver's copy of the tables in
// spec.go.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func TestMetricAndWorkloadTables(t *testing.T) {
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	check := func(kind, n string) {
		if !name.MatchString(n) {
			t.Errorf("%s name %q is not a valid name", kind, n)
		}
		if seen[n] {
			t.Errorf("%s name %q used twice", kind, n)
		}
		seen[n] = true
	}
	if n := len(workloadSpecs); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2 to 8", n)
	}
	for _, w := range workloadSpecs {
		check("workload", w.Name)
		if w.Why == "" || len(w.Why) > 200 {
			t.Errorf("workload %s: why is %d characters, want 1 to 200", w.Name, len(w.Why))
		}
		if prepareFns[w.Name] == nil {
			t.Errorf("workload %s has no prepare function", w.Name)
		}
	}
	if len(prepareFns) != len(workloadSpecs) {
		t.Errorf("%d prepare functions for %d workloads", len(prepareFns), len(workloadSpecs))
	}
	if n := len(endToEndSpecs); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1 to 16", n)
	}
	if n := len(perLayerSpecs); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1 to 128", n)
	}
	maxBound := 0.0
	for _, m := range endToEndSpecs {
		check("end-to-end metric", m.Name)
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		maxBound = max(maxBound, m.Bound)
	}
	for _, m := range append(append([]metricSpec(nil), endToEndSpecs...), perLayerSpecs...) {
		if !unit.MatchString(m.Unit) {
			t.Errorf("%s: unit %q is not a valid unit", m.Name, m.Unit)
		}
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("%s: better is %q", m.Name, m.Better)
		}
		if m.Clock != "" && m.Clock != "wall" && m.Clock != "sim" {
			t.Errorf("%s: clock is %q", m.Name, m.Clock)
		}
	}
	for _, m := range perLayerSpecs {
		check("per-layer metric", m.Name)
		if m.Moves == "" {
			t.Errorf("%s: no prediction of what it moves", m.Name)
		}
	}
	if s := endToEndSpecs[0]; s.Name != "setup_s" || s.Unit != "s" || s.Better != "lower" || s.Bound != maxBound {
		t.Errorf("setup_s must lead the end-to-end metrics in seconds with the largest bound, have %+v", s)
	}
}

func TestBenchmarkJSONMatchesSpec(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(data) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes, above 64 KiB", len(data))
	}
	var keys map[string]json.RawMessage
	if err := json.Unmarshal(data, &keys); err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"} {
		if _, ok := keys[k]; !ok {
			t.Errorf("BENCHMARK.json lacks %q", k)
		}
		delete(keys, k)
	}
	for k := range keys {
		t.Errorf("BENCHMARK.json has the extra key %q", k)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(b.Paths, []string{"benchmark"}) {
		t.Errorf("paths = %v", b.Paths)
	}
	if !reflect.DeepEqual(b.Command, []string{"bash", "benchmark/run.sh"}) {
		t.Errorf("command = %v", b.Command)
	}
	if b.RunSeconds < 10 || b.RunSeconds > 60 {
		t.Errorf("run_seconds = %d, want 10 to 60", b.RunSeconds)
	}
	if len(b.Workloads) != len(workloadSpecs) {
		t.Fatalf("%d workloads, spec has %d", len(b.Workloads), len(workloadSpecs))
	}
	for i, w := range workloadSpecs {
		if b.Workloads[i].Name != w.Name || b.Workloads[i].Why != w.Why {
			t.Errorf("workload %d = %+v, spec has %+v", i, b.Workloads[i], w)
		}
	}
	if len(b.EndToEnd) != len(endToEndSpecs) {
		t.Fatalf("%d end-to-end metrics, spec has %d", len(b.EndToEnd), len(endToEndSpecs))
	}
	for i, m := range endToEndSpecs {
		if g := b.EndToEnd[i]; g.Name != m.Name || g.Unit != m.Unit || g.Better != m.Better || g.Bound != m.Bound {
			t.Errorf("end-to-end metric %d = %+v, spec has %+v", i, g, m)
		}
	}
	if len(b.PerLayer) != len(perLayerSpecs) {
		t.Fatalf("%d per-layer metrics, spec has %d", len(b.PerLayer), len(perLayerSpecs))
	}
	for i, m := range perLayerSpecs {
		if g := b.PerLayer[i]; g.Name != m.Name || g.Unit != m.Unit || g.Better != m.Better {
			t.Errorf("per-layer metric %d = %+v, spec has %+v", i, g, m)
		}
	}
}

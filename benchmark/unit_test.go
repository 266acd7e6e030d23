package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"reflect"
	"testing"
	"time"

	"chopper"
)

func TestPercentileAndSampleCountRule(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[99-i] = float64(i + 1) // 100..1, unsorted on purpose
	}
	for _, c := range []struct{ p, want float64 }{{0.5, 50}, {0.95, 95}, {0.99, 99}, {1, 100}, {0.001, 1}} {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("percentile(%.3f) = %v, want %v", c.p, got, c.want)
		}
	}
	if percentile(nil, 0.5) != 0 || median(nil) != 0 {
		t.Error("no samples must read 0")
	}
	if median([]float64{4, 1, 3, 2}) != 2.5 || median([]float64{3, 1, 2}) != 2 {
		t.Error("median of an even count is the mean of the middle pair")
	}
	// A percentile needs ten samples beyond it.
	for _, c := range []struct {
		p    float64
		n    int
		want bool
	}{{0.95, 199, false}, {0.95, 200, true}, {0.99, 999, false}, {0.99, 1000, true}, {0.5, 20, true}, {0.5, 19, false}} {
		if got := supported(c.p, c.n); got != c.want {
			t.Errorf("supported(%v, %d) = %v, want %v", c.p, c.n, got, c.want)
		}
	}
}

func TestQuartilesMatchPythonStatistics(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	xs := []float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}
	q1, q3 := quartiles(xs)
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles = %v, %v; want 2.75, 8.25", q1, q3)
	}
	if got, want := spread(xs), 5.5/5.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("spread = %v, want %v", got, want)
	}
	// statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]: positions
	// outside the sample extrapolate.
	if q1, q3 := quartiles([]float64{1, 2}); q1 != 0.75 || q3 != 2.25 {
		t.Errorf("two samples: %v, %v; want 0.75, 2.25", q1, q3)
	}
	if spread([]float64{3}) != 0 {
		t.Error("one sample has no spread")
	}
}

func TestSeededGeneratorsReproduceByteForByte(t *testing.T) {
	specs := []chopper.IOSpec{{Name: "a", Width: 8}, {Name: "wide", Width: 130}}
	gen := func(seed int64) []byte {
		data, err := json.Marshal(struct {
			In       wide
			Schedule []time.Duration
		}{
			genWide(streamRand(seed, "inputs x"), specs, 70),
			genSchedule(streamRand(seed, "schedule"), 300, time.Second),
		})
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	if !bytes.Equal(gen(7), gen(7)) {
		t.Error("the same seed generated different inputs")
	}
	if bytes.Equal(gen(7), gen(8)) {
		t.Error("different seeds generated the same inputs")
	}
	if streamSeed(7, "a") == streamSeed(7, "b") {
		t.Error("streams of one seed must differ")
	}
	in := genWide(streamRand(1, "w"), specs, 70)
	for _, v := range in["wide"] {
		if len(v) != 3 || v[2]>>2 != 0 {
			t.Fatalf("130-bit operand %x not masked to its width", v)
		}
	}
	due := genSchedule(streamRand(1, "s"), 300, time.Second)
	if len(due) != 300 {
		t.Errorf("%d arrivals in 1 s at 300/s, want the expected count", len(due))
	}
	for i := 1; i < len(due); i++ {
		if due[i] < due[i-1] || due[i] >= time.Second {
			t.Fatalf("schedule not ascending within the duration at %d: %v", i, due[i])
		}
	}
}

func TestServeRequestsReproduceByteForByte(t *testing.T) {
	mix := map[int64]map[string]int{}
	bodies := func(seed int64) [][]byte {
		orc, err := newOracle(seed, false)
		if err != nil {
			t.Fatal(err)
		}
		p, err := prepareServeMixed(&env{seed: seed, duration: 200 * time.Millisecond, oracle: orc})
		if err != nil {
			t.Fatal(err)
		}
		defer p.close()
		sr := p.(*serveRun)
		var out [][]byte
		mix[seed] = map[string]int{}
		for i, q := range sr.reqs {
			out = append(out, []byte(q.kind+sr.due[i].String()), q.body)
			mix[seed][q.kind]++
			name := "unique"
			if q.src != nil {
				name = q.src.name
			}
			mix[seed][fmt.Sprintf("%s/%s/%v", q.kind, name, q.class)]++
		}
		return out
	}
	a, b, c := bodies(5), bodies(5), bodies(6)
	if len(a) == 0 || len(a) != len(b) {
		t.Fatalf("%d and %d requests from one seed", len(a)/2, len(b)/2)
	}
	for i := range a {
		if !bytes.Equal(a[i], b[i]) {
			t.Fatalf("request %d differs between two generations from one seed", i/2)
		}
	}
	if len(a) == len(c) && bytes.Equal(bytes.Join(a, nil), bytes.Join(c, nil)) {
		t.Error("different seeds generated the same request stream")
	}
	// The deck is fixed: a seed decides order, timing and operands, never
	// how many requests of which kind, source and class a run sends.
	if !reflect.DeepEqual(mix[5], mix[6]) {
		t.Errorf("seeds 5 and 6 send different request mixes:\n%v\n%v", mix[5], mix[6])
	}
	if n := len(a) / 2; n != 60 || mix[5]["compile"] != 18 || mix[5]["run"] != 36 || mix[5]["verify"] != 6 {
		t.Errorf("%d requests in 200 ms at 300/s: %d compile, %d run, %d verify; want 60 split 30/60/10 %%", n, mix[5]["compile"], mix[5]["run"], mix[5]["verify"])
	}
}

func TestSpanSelfTime(t *testing.T) {
	// root [0,100): child a [10,40), child b [30,60) overlapping a (a
	// fan-out), child c [90,120) running past the root; grandchild under
	// a [10,20).
	spans := []span{
		{ID: 0, Parent: -1, Name: "item", StartNs: 0, EndNs: 100},
		{ID: 1, Parent: 0, Name: "sim.exec", StartNs: 10, EndNs: 40},
		{ID: 2, Parent: 0, Name: "sim.exec", StartNs: 30, EndNs: 60},
		{ID: 3, Parent: 0, Name: "dram.replay", StartNs: 90, EndNs: 120},
		{ID: 4, Parent: 1, Name: "harness.hostio", StartNs: 10, EndNs: 20},
	}
	want := []int64{
		100 - (50 + 10), // union of a and b is [10,60); c is clipped to [90,100)
		30 - 10,
		30,
		30,
		10,
	}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self time of span %d = %d, want %d", i, got[i], want[i])
		}
	}

	// A standalone re-run moves its time out of the span that contains
	// the work, and the op's root is no layer.
	spans = []span{
		{ID: 0, Parent: -1, Name: "item", StartNs: 0, EndNs: 100},
		{ID: 1, Parent: 0, Name: "obs.schedule", StartNs: 0, EndNs: 10, Within: "codegen.generate"},
		{ID: 2, Parent: 0, Name: "codegen.generate", StartNs: 10, EndNs: 50},
		{ID: 3, Parent: 0, Name: "logic.legalize", StartNs: 50, EndNs: 60},
	}
	shares := layerSelfShares(spans, func(*span) bool { return true })
	for layer, want := range map[string]float64{"obs": 0.2, "codegen": 0.6, "logic": 0.2} {
		if math.Abs(shares[layer]-want) > 1e-12 {
			t.Errorf("share of %s = %v, want %v", layer, shares[layer], want)
		}
	}
	if _, ok := shares["item"]; ok {
		t.Error("the op's root span counted as a layer")
	}
}

func TestVerdict(t *testing.T) {
	lower := metricSpec{Name: "op_ms_p50", Better: "lower", Bound: 0.10}
	higher := metricSpec{Name: "ops_per_s", Better: "higher", Bound: 0.10}
	tight := func(m float64) []float64 { return []float64{m * 0.99, m, m * 1.01, m, m} }
	noisy := func(m float64) []float64 { return []float64{m * 0.8, m * 0.9, m, m * 1.1, m * 1.2} }
	for _, c := range []struct {
		name string
		spec metricSpec
		a, b []float64
		want string
	}{
		{"same", lower, tight(10), tight(10), "ok"},
		{"within the bound", lower, tight(10), tight(10.9), "ok"},
		{"slower than the bound", lower, tight(10), tight(11.5), "worse"},
		{"lower throughput", higher, tight(100), tight(85), "worse"},
		{"higher throughput", higher, tight(100), tight(130), "ok"},
		{"spread wider than the bound", lower, noisy(10), noisy(10.2), "unresolved"},
		{"noisy but every run better", lower, noisy(10), noisy(5), "ok"},
		{"exact metric unchanged", metricSpec{Better: "lower", Bound: exactBound}, []float64{5, 5}, []float64{5, 5}, "ok"},
		{"exact metric one worse", metricSpec{Better: "lower", Bound: exactBound}, []float64{5e6, 5e6}, []float64{5e6 + 1, 5e6 + 1}, "worse"},
	} {
		if got := verdict(c.spec, c.a, c.b); got != c.want {
			t.Errorf("%s: verdict %q, want %q", c.name, got, c.want)
		}
	}
}

func TestOracleRejectsAWrongOutput(t *testing.T) {
	const src = "node main(a: u8, b: u8) returns (z: u8) let z = a + b; tel"
	k, err := chopper.Compile(src, chopper.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, seed := range []int64{1, 9} { // committed digests; run-time three-way agreement
		orc, err := newOracle(seed, false)
		if err != nil {
			t.Fatal(err)
		}
		// add8 at 64 lanes is one of serve_mixed's committed cases.
		c := orc.newCase("add8 #0", src, serveLanes)
		if err := establishCases(orc, []*chopper.Kernel{k}, []*refCase{c}); err != nil {
			t.Fatalf("seed %d: the right output was rejected: %v", seed, err)
		}
		wrong := make(wide, len(c.want))
		for name, lanes := range c.want {
			wrong[name] = append([][]uint64(nil), lanes...)
		}
		wrong["z"][17] = []uint64{c.want["z"][17][0] ^ 1}
		fresh := orc.newCase("add8 #0", src, serveLanes)
		orc.bind(fresh, k.Inputs)
		if err := orc.establish(fresh, k, wrong); err == nil {
			t.Errorf("seed %d: one flipped output bit was accepted", seed)
		}
		if err := diffWide(wrong, c.want); err == nil {
			t.Errorf("seed %d: diffWide missed the flipped bit", seed)
		}
	}
	// The service layout must carry exactly the lanes asked for.
	want := wide{"z": {{1}, {2}, {3}, {4}}}
	if err := diffNarrow(map[string][]uint64{"z": {2, 3}}, want, 1, 2); err != nil {
		t.Errorf("lanes [1,3) rejected: %v", err)
	}
	if diffNarrow(map[string][]uint64{"z": {}}, want, 0, 2) == nil {
		t.Error("an empty output passed for two lanes")
	}
	if diffNarrow(map[string][]uint64{"z": {2, 9}}, want, 1, 2) == nil {
		t.Error("a wrong lane passed")
	}
}

package bench

import (
	"strings"
	"sync"
	"testing"

	"chopper"
	"chopper/internal/isa"
	"chopper/internal/obs"
	"chopper/internal/vircoe"
	"chopper/internal/workloads"
)

func TestPUDTimePositiveAndCached(t *testing.T) {
	h := NewHarness()
	spec := workloads.Build("DiffGen", 64)
	cfg := DefaultConfig()
	t1, err := h.PUDTimeNs(spec, isa.Ambit, Chopper, obs.Full, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if t1 <= 0 {
		t.Fatal("non-positive time")
	}
	t2, err := h.PUDTimeNs(spec, isa.Ambit, Chopper, obs.Full, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if t1 != t2 {
		t.Errorf("measurement not deterministic: %f vs %f", t1, t2)
	}
}

func TestChopperBeatsHandsTuned(t *testing.T) {
	h := NewHarness()
	cfg := DefaultConfig()
	for _, spec := range QuickWorkloads() {
		for _, arch := range isa.AllArchs {
			hand, err := h.PUDTimeNs(spec, arch, HandsTuned, obs.Full, cfg)
			if err != nil {
				t.Fatal(err)
			}
			chop, err := h.PUDTimeNs(spec, arch, Chopper, obs.Full, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if chop >= hand {
				t.Errorf("%s/%v: CHOPPER (%.0f) not faster than hands-tuned (%.0f)", spec.Name, arch, chop, hand)
			}
		}
	}
}

func TestSpillRegimeSpeedupLarger(t *testing.T) {
	// Figure 9's second observation: the CHOPPER-over-hands-tuned speedup
	// is much larger when the baseline spills (config 4) than when it fits
	// (config 1).
	h := NewHarness()
	cfg := DefaultConfig()
	for _, domain := range []string{"DiffGen", "SW"} {
		fit := workloads.Build(domain, workloads.Configs[domain][0])
		spill := workloads.Build(domain, workloads.Configs[domain][3])

		fitSpills, err := h.SpillsInBaseline(fit, isa.Ambit)
		if err != nil {
			t.Fatal(err)
		}
		spillSpills, err := h.SpillsInBaseline(spill, isa.Ambit)
		if err != nil {
			t.Fatal(err)
		}
		if fitSpills {
			t.Errorf("%s: smallest config spills in baseline", fit.Name)
		}
		if !spillSpills {
			t.Errorf("%s: largest config does not spill in baseline", spill.Name)
		}

		speedup := func(spec workloads.Spec) float64 {
			hand, err := h.PUDTimeNs(spec, isa.Ambit, HandsTuned, obs.Full, cfg)
			if err != nil {
				t.Fatal(err)
			}
			chop, err := h.PUDTimeNs(spec, isa.Ambit, Chopper, obs.Full, cfg)
			if err != nil {
				t.Fatal(err)
			}
			return hand / chop
		}
		sFit, sSpill := speedup(fit), speedup(spill)
		if sSpill <= sFit {
			t.Errorf("%s: spill-regime speedup (%.2f) not larger than fit-regime (%.2f)", domain, sSpill, sFit)
		}
	}
}

func TestBreakdownMonotonic(t *testing.T) {
	// Figure 10: each added OBS optimization must not slow things down.
	h := NewHarness()
	cfg := DefaultConfig()
	for _, spec := range QuickWorkloads() {
		var prev float64
		for i, v := range obs.AllVariants {
			ns, err := h.PUDTimeNs(spec, isa.Ambit, Chopper, v, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if i > 0 && ns > prev*1.02 { // 2% tolerance for scheduling noise
				t.Errorf("%s: variant %v (%.0f ns) slower than previous (%.0f ns)", spec.Name, v, ns, prev)
			}
			prev = ns
		}
	}
}

func TestFig11RobustAcrossSubarraySizes(t *testing.T) {
	h := NewHarness()
	spec := workloads.Build("SW", 64)
	for _, rows := range []int{512, 1024, 2048} {
		cfg := DefaultConfig()
		cfg.Geom = cfg.Geom.WithRowsPerSub(rows)
		hand, err := h.PUDTimeNs(spec, isa.Ambit, HandsTuned, obs.Full, cfg)
		if err != nil {
			t.Fatal(err)
		}
		chop, err := h.PUDTimeNs(spec, isa.Ambit, Chopper, obs.Full, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if chop >= hand {
			t.Errorf("rows=%d: CHOPPER (%.0f) not faster than hands-tuned (%.0f)", rows, chop, hand)
		}
	}
}

func TestFig12SALPAmplifies(t *testing.T) {
	h := NewHarness()
	spec := workloads.Build("DenseNet", 16)
	base := DefaultConfig()
	base.Placements = base.Geom.Banks * 4

	timeWith := func(mode vircoe.Mode, salp bool) float64 {
		cfg := base
		cfg.Mode = mode
		cfg.SALP = salp
		ns, err := h.PUDTimeNs(spec, isa.Ambit, Chopper, obs.Full, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return ns
	}
	subNo := timeWith(vircoe.SubarrayAware, false)
	subYes := timeWith(vircoe.SubarrayAware, true)
	bankNo := timeWith(vircoe.BankAware, false)
	bankYes := timeWith(vircoe.BankAware, true)

	if subYes >= subNo {
		t.Errorf("SALP did not speed up subarray-aware emission: %.0f vs %.0f", subYes, subNo)
	}
	if subYes >= bankYes {
		t.Errorf("with SALP, subarray-aware (%.0f) should beat bank-aware (%.0f)", subYes, bankYes)
	}
	if subNo < bankNo*0.98 {
		t.Errorf("without SALP, subarray-aware (%.0f) should not beat bank-aware (%.0f)", subNo, bankNo)
	}
}

func TestCPUGPUModels(t *testing.T) {
	spec := workloads.Build("WTC", 64)
	cpu := CPUTimeNs(spec)
	gpu := GPUTimeNs(spec)
	if cpu <= 0 || gpu <= 0 {
		t.Fatal("non-positive host time")
	}
	if gpu >= cpu {
		t.Error("GPU should beat CPU on streaming workloads")
	}
}

func TestTable3Shape(t *testing.T) {
	h := NewHarness()
	tab, err := h.Table3()
	if err != nil {
		t.Fatal(err)
	}
	byCell := map[[2]string]float64{}
	for _, r := range tab.Rows {
		byCell[[2]string{r.Workload, r.Series}] = r.Value
	}
	for _, d := range workloads.Domains {
		name := workloads.Build(d, workloads.Configs[d][1]).Name
		single := byCell[[2]string{name, "hand-single"}]
		all := byCell[[2]string{name, "hand-all"}]
		ch := byCell[[2]string{name, "CHOPPER"}]
		if !(ch < single && single < all) {
			t.Errorf("%s: LoC ordering broken: chopper=%.0f single=%.0f all=%.0f", name, ch, single, all)
		}
		if all < 1000*ch {
			t.Errorf("%s: all-subarray hands-tuning (%.0f) not >10^3x CHOPPER (%.0f)", name, all, ch)
		}
	}
}

func TestTablesRender(t *testing.T) {
	if !strings.Contains(Table1(), "DDR4-2400") {
		t.Error("Table1 missing DRAM config")
	}
	if !strings.Contains(Table2(), "DenseNet-16") {
		t.Error("Table2 missing workloads")
	}
	tab := &Table{Title: "t", Unit: "x", Rows: []Row{{"w", "s", 1.5}}}
	if !strings.Contains(tab.Render(), "1.50") {
		t.Error("Render lost values")
	}
}

func TestGeoMean(t *testing.T) {
	tab := &Table{Rows: []Row{{"a", "s", 2}, {"b", "s", 8}}}
	if g := tab.GeoMean("s"); g < 3.99 || g > 4.01 {
		t.Errorf("geomean = %f, want 4", g)
	}
	if g := tab.GeoMean("none"); g != 0 {
		t.Errorf("geomean of empty series = %f", g)
	}
}

func TestCompileErrorSurfaces(t *testing.T) {
	h := NewHarness()
	bad := workloads.Spec{Name: "bad", Src: "node main(", TotalLanes: 1}
	if _, err := h.PUDTimeNs(bad, isa.Ambit, Chopper, obs.Full, DefaultConfig()); err == nil {
		t.Error("compile error swallowed")
	}
	// Cached error resurfaces.
	if _, err := h.PUDTimeNs(bad, isa.Ambit, Chopper, obs.Full, DefaultConfig()); err == nil {
		t.Error("cached compile error swallowed")
	}
}

// A figure names the OBS variant it measures, so a kernel the degradation
// ladder built below that variant is an error, never a number.
func TestFiguresNeverDegradeSilently(t *testing.T) {
	obs.TestPanicHook = func(pressureAware bool) {
		if pressureAware {
			panic("obs: forced scheduler panic (test hook)")
		}
	}
	defer func() { obs.TestPanicHook = nil }()

	h := NewHarness()
	spec := workloads.Build("DiffGen", 64)
	ns, err := h.PUDTimeNs(spec, isa.Ambit, Chopper, obs.Full, DefaultConfig())
	if err == nil {
		t.Fatalf("measured %.0f ns on a degraded kernel", ns)
	}
	for _, want := range []string{"degraded from rename to bitslice", "forced scheduler panic"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not mention %q", err, want)
		}
	}
	// Levels the failing pass is not part of still measure.
	if _, err := h.PUDTimeNs(spec, isa.Ambit, Chopper, obs.Bitslice, DefaultConfig()); err != nil {
		t.Errorf("bitslice variant: %v", err)
	}
}

// Two goroutines asking the harness for the same kernel compile it once.
func TestHarnessCompilesOncePerKey(t *testing.T) {
	h := NewHarness()
	spec := workloads.Build("SW", 64)
	var wg sync.WaitGroup
	var kernels [2]*chopper.Kernel
	for i := range kernels {
		wg.Add(1)
		go func() {
			defer wg.Done()
			k, err := h.kernel(spec, isa.Ambit, Chopper, obs.Full, DefaultConfig().Geom)
			if err != nil {
				t.Error(err)
			}
			kernels[i] = k
		}()
	}
	wg.Wait()
	if kernels[0] != kernels[1] {
		t.Error("the two callers hold different kernels")
	}
	if st := h.cache.Stats(); st.Misses != 1 || st.Hits+st.Dedups != 1 {
		t.Errorf("cache stats %+v, want one miss and one hit-or-shared", st)
	}
}

// Smoke-run every experiment generator on a single tiny workload so the
// table plumbing stays covered without the full sweep's cost.
func TestExperimentGeneratorsSmoke(t *testing.T) {
	h := NewHarness()
	sel := Selection{workloads.Build("SW", 64)}
	for name, f := range map[string]func(Selection) (*Table, error){
		"fig9":        h.Fig9,
		"fig9summary": h.Fig9Speedups,
		"fig10":       h.Fig10,
		"fig11":       h.Fig11,
		"emission":    h.EmissionStudy,
		"energy":      h.EnergyStudy,
	} {
		tab, err := f(sel)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(tab.Rows) == 0 {
			t.Errorf("%s: empty table", name)
		}
		if tab.Render() == "" {
			t.Errorf("%s: empty render", name)
		}
	}
	// Fig12 uses many placements; run it on the tiniest workload only.
	if tab, err := h.Fig12(Selection{workloads.Build("DiffGen", 64)}); err != nil || len(tab.Rows) == 0 {
		t.Fatalf("fig12: %v", err)
	}
}

func TestSSDStudyShape(t *testing.T) {
	if testing.Short() {
		t.Skip("SSD sweep compiles the largest configurations")
	}
	h := NewHarness()
	tab, err := h.SSDStudy()
	if err != nil {
		t.Fatal(err)
	}
	byCell := map[[2]string]float64{}
	for _, r := range tab.Rows {
		byCell[[2]string{r.Workload, r.Series}] = r.Value
	}
	for _, d := range workloads.Domains {
		name := workloads.Build(d, workloads.Configs[d][3]).Name
		sata := byCell[[2]string{name, "hand/SATA"}]
		nvme := byCell[[2]string{name, "hand/NVMe"}]
		xl := byCell[[2]string{name, "hand/XL-Flash"}]
		if !(xl < nvme && nvme < sata) {
			t.Errorf("%s: faster storage did not help hands-tuned: %f %f %f", name, sata, nvme, xl)
		}
		if xl <= 1 {
			t.Errorf("%s: hands-tuned beat CHOPPER even on XL-Flash (%f)", name, xl)
		}
	}
}

func TestCSVRender(t *testing.T) {
	tab := &Table{
		Series: []string{"s1", "s2"},
		Rows: []Row{
			{"w1", "s1", 1.5}, {"w1", "s2", 2},
			{"w2", "s1", 3},
		},
	}
	csv := tab.CSV()
	want := "workload,s1,s2\nw1,1.5,2\nw2,3,\n"
	if csv != want {
		t.Errorf("CSV:\n%q\nwant\n%q", csv, want)
	}
}

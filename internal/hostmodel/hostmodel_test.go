package hostmodel

import "testing"

func TestMachinesValid(t *testing.T) {
	for _, m := range []Machine{Skylake(), TitanV()} {
		if err := m.Validate(); err != nil {
			t.Errorf("%s: %v", m.Name, err)
		}
	}
	bad := Machine{MemBWGBs: -1}
	if err := bad.Validate(); err == nil {
		t.Error("bad machine accepted")
	}
}

func TestRooflineRegimes(t *testing.T) {
	m := Skylake()
	// Memory-bound: lots of bytes, few ops.
	memBound := m.TimeNs(1e9, 1)
	// Compute-bound: few bytes, lots of ops.
	cmpBound := m.TimeNs(1, 1e12)
	wantMem := 1e9 / (m.MemBWGBs * m.Efficiency)
	if memBound < wantMem {
		t.Errorf("memory-bound time %.0f below bandwidth bound %.0f", memBound, wantMem)
	}
	wantCmp := 1e12 / (m.GopsPerSec * m.Efficiency)
	if cmpBound < wantCmp {
		t.Errorf("compute-bound time %.0f below throughput bound %.0f", cmpBound, wantCmp)
	}
}

func TestGPUFasterThanCPUOnStreaming(t *testing.T) {
	c := Cost{Bytes: 4e9, Ops: 1e9}
	cpu := Skylake().TimeNs(c.Bytes, c.Ops)
	gpu := TitanV().TimeNs(c.Bytes, c.Ops)
	if gpu >= cpu {
		t.Errorf("GPU (%.0f) not faster than CPU (%.0f) on a streaming workload", gpu, cpu)
	}
	// The ratio should be in the bandwidth-ratio ballpark (~7x), not 1000x.
	if r := cpu / gpu; r < 3 || r > 15 {
		t.Errorf("GPU/CPU ratio %.1f outside the bandwidth-ratio ballpark", r)
	}
}

func TestLaunchOverheadDominatesTinyWork(t *testing.T) {
	m := TitanV()
	tiny := m.TimeNs(64, 64)
	if tiny < m.LaunchOverheadNs {
		t.Errorf("tiny kernel (%.0f ns) below launch overhead", tiny)
	}
}

func TestTimeMonotonic(t *testing.T) {
	m := Skylake()
	if m.TimeNs(2e9, 0) <= m.TimeNs(1e9, 0) {
		t.Error("time not monotonic in bytes")
	}
	if m.TimeNs(0, 2e12) <= m.TimeNs(0, 1e12) {
		t.Error("time not monotonic in ops")
	}
}

func TestValidateRejectsNegativeOverhead(t *testing.T) {
	m := Skylake()
	m.LaunchOverheadNs = -1
	if err := m.Validate(); err == nil {
		t.Error("negative launch overhead accepted")
	}
}

func TestTimeNsCheckedZeroValue(t *testing.T) {
	var m Machine
	if _, err := m.TimeNsChecked(1e6, 1e6); err == nil {
		t.Error("zero-value machine produced a time instead of an error")
	}
	got, err := Skylake().TimeNsChecked(1e6, 1e6)
	if err != nil {
		t.Fatal(err)
	}
	if want := Skylake().TimeNs(1e6, 1e6); got != want {
		t.Errorf("checked time %g != unchecked %g", got, want)
	}
}

func TestDefaultTransfer(t *testing.T) {
	// 19,200 bytes over one 19.2 GB/s channel: 1000 ns wire + 600 ns setup.
	if got, want := DefaultTransfer().TimeNs(19_200, 1), 1600.0; got != want {
		t.Errorf("default transfer: %g ns, want %g", got, want)
	}
}

func TestTransferTimeNs(t *testing.T) {
	tr := Transfer{ChannelBWGBs: 10, DMASetupNs: 100}
	if got := tr.TimeNs(0, 4); got != 0 {
		t.Errorf("zero bytes cost %g ns, want 0", got)
	}
	// 1000 bytes over one 10 GB/s (= 10 B/ns) channel: 100 ns wire + setup.
	if got, want := tr.TimeNs(1000, 1), 200.0; got != want {
		t.Errorf("one channel: %g ns, want %g", got, want)
	}
	// Four channels stream four times as fast; setup is paid once.
	if got, want := tr.TimeNs(1000, 4), 125.0; got != want {
		t.Errorf("four channels: %g ns, want %g", got, want)
	}
	// Channel counts below one behave as one.
	if tr.TimeNs(1000, 0) != tr.TimeNs(1000, 1) {
		t.Error("channels=0 not clamped to 1")
	}
}

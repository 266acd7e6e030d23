// Package hostmodel provides analytic (roofline-style) execution-time
// models for the host side of the system: the two real machines the paper
// compares against (the Intel Skylake multi-core CPU and the NVIDIA
// TITAN V GPU of Table I) and the host<->DRAM transfer path that moves a
// PUD workload's inputs and outputs over the memory channels (Transfer).
//
// The paper measures these baselines on real hardware running tuned
// software (PyTorch, LevelWT, hand-tuned kernels). That hardware is not
// available here, so — per the reproduction's substitution policy — each
// machine is modeled as the max of its memory-traffic time and its
// compute time, with an efficiency factor representing how well tuned
// software approaches peak. The CPU serves as the normalization
// denominator of every figure, so what matters is that its throughput is
// stable and in the right regime (memory-bound for these streaming
// workloads), not cycle-exact.
package hostmodel

import "fmt"

// Machine is an analytic machine model.
type Machine struct {
	Name string
	// MemBWGBs is sustained memory bandwidth in GB/s.
	MemBWGBs float64
	// GopsPerSec is sustained element-operation throughput in Gop/s
	// (SIMD integer ops across all cores/SMs).
	GopsPerSec float64
	// Efficiency derates both peaks for real tuned software.
	Efficiency float64
	// LaunchOverheadNs is fixed per-invocation overhead (kernel launch,
	// thread pool wake-up).
	LaunchOverheadNs float64
}

// Skylake returns the Table I CPU: 8-core out-of-order x86 at 4 GHz with
// 4-channel DDR4-2400 (76.8 GB/s peak). Compute peak assumes AVX2 integer
// lanes: 8 cores x 32 B/cycle x 4 GHz = 1024 Gop/s on byte elements.
func Skylake() Machine {
	return Machine{
		Name:             "Skylake-8c",
		MemBWGBs:         76.8,
		GopsPerSec:       1024,
		Efficiency:       0.65,
		LaunchOverheadNs: 2_000,
	}
}

// TitanV returns the Table I GPU: 5120 CUDA cores at 1.2 GHz with HBM2
// (652.8 GB/s). Compute peak 5120 x 1.2 GHz = 6144 Gop/s on word
// elements.
func TitanV() Machine {
	return Machine{
		Name:             "TITAN-V",
		MemBWGBs:         652.8,
		GopsPerSec:       6144,
		Efficiency:       0.55,
		LaunchOverheadNs: 10_000,
	}
}

// Validate rejects degenerate models: non-positive peaks, an efficiency
// outside (0, 1], or a negative launch overhead (which would let a model
// report negative times for small workloads).
func (m Machine) Validate() error {
	if m.MemBWGBs <= 0 || m.GopsPerSec <= 0 || m.Efficiency <= 0 || m.Efficiency > 1 {
		return fmt.Errorf("hostmodel: bad machine %+v", m)
	}
	if m.LaunchOverheadNs < 0 {
		return fmt.Errorf("hostmodel: negative launch overhead %g ns in machine %q", m.LaunchOverheadNs, m.Name)
	}
	return nil
}

// TimeNs estimates the execution time of a workload touching `bytes` of
// memory and performing `ops` element operations. The machine must be
// valid (Validate); a zero-value Machine divides by zero here, which is
// why every entry point that accepts a Machine from outside the package
// goes through TimeNsChecked instead.
func (m Machine) TimeNs(bytes, ops float64) float64 {
	memNs := bytes / (m.MemBWGBs * m.Efficiency) // GB/s == B/ns
	cmpNs := ops / (m.GopsPerSec * m.Efficiency)
	t := memNs
	if cmpNs > t {
		t = cmpNs
	}
	return t + m.LaunchOverheadNs
}

// TimeNsChecked is TimeNs behind Validate: a degenerate machine (e.g. the
// zero value, whose peaks divide to NaN/Inf) surfaces as an error instead
// of a nonsense figure.
func (m Machine) TimeNsChecked(bytes, ops float64) (float64, error) {
	if err := m.Validate(); err != nil {
		return 0, err
	}
	return m.TimeNs(bytes, ops), nil
}

// Cost describes a workload's host-side resource demands.
type Cost struct {
	Bytes float64 // memory traffic (reads + writes)
	Ops   float64 // element operations
}

// Transfer models the host<->DRAM DMA path that scatters a tiled
// workload's inputs into the subarrays and gathers its outputs back: a
// per-channel sustained bandwidth plus a fixed per-DMA setup cost
// (descriptor build, doorbell, completion interrupt). Channels move data
// independently, so an n-channel device streams at n times the
// per-channel bandwidth while paying the setup once per DMA direction.
type Transfer struct {
	// ChannelBWGBs is the sustained host<->DRAM bandwidth of one channel
	// in GB/s.
	ChannelBWGBs float64
	// DMASetupNs is the fixed per-DMA overhead in nanoseconds.
	DMASetupNs float64
}

// DefaultTransfer returns the evaluation default: one DDR4-2400 channel's
// 19.2 GB/s, with a 600 ns DMA setup (descriptor programming plus
// completion signalling, the order of a host round trip).
func DefaultTransfer() Transfer {
	return Transfer{ChannelBWGBs: 19.2, DMASetupNs: 600}
}

// TimeNs returns the time to move `bytes` over `channels` parallel
// channels: one DMA setup plus the streaming time at the aggregate
// bandwidth. Zero bytes cost zero (no DMA is issued); channel counts
// below one are treated as one.
func (t Transfer) TimeNs(bytes float64, channels int) float64 {
	if bytes <= 0 {
		return 0
	}
	if channels < 1 {
		channels = 1
	}
	return t.DMASetupNs + bytes/(t.ChannelBWGBs*float64(channels)) // GB/s == B/ns
}

// Package ssd models the secondary storage device that absorbs data spilled
// out of the DRAM subarrays, in the spirit of MQSim: a multi-queue SSD with
// per-channel/per-die service units, explicit page read / page program
// latencies, and an interface-bus transfer cost per page.
//
// The evaluation configuration follows Table I of the paper: a 60 GB drive
// with 1 channel, 1 chip per channel, 1 die per chip — i.e. the least
// parallel (and therefore most spill-hostile) configuration, which is what
// makes data spilling so expensive in the paper's spill-regime results.
package ssd

import (
	"fmt"
	"sync"
)

// Config describes the drive.
type Config struct {
	Channels    int
	ChipsPerCh  int
	DiesPerChip int
	PageBytes   int

	ReadLatencyNs    float64 // flash array read (tR)
	ProgramLatencyNs float64 // flash array program (tPROG)
	XferNsPerByte    float64 // channel interface transfer cost
	CapacityBytes    int64
}

// DefaultConfig returns the Table I drive: 60 GB, 1 channel, 1 chip, 1 die,
// 16 KB pages, MLC-class latencies (tR 50 us, tPROG 600 us), 1.2 GB/s
// channel interface.
func DefaultConfig() Config {
	return Config{
		Channels: 1, ChipsPerCh: 1, DiesPerChip: 1,
		PageBytes:        16 << 10,
		ReadLatencyNs:    50_000,
		ProgramLatencyNs: 600_000,
		XferNsPerByte:    1.0 / 1.2,
		CapacityBytes:    60 << 30,
	}
}

// Validate rejects degenerate configurations.
func (c Config) Validate() error {
	if c.Channels <= 0 || c.ChipsPerCh <= 0 || c.DiesPerChip <= 0 {
		return fmt.Errorf("ssd: non-positive parallelism %+v", c)
	}
	if c.PageBytes <= 0 || c.CapacityBytes <= 0 {
		return fmt.Errorf("ssd: non-positive size %+v", c)
	}
	if c.ReadLatencyNs < 0 || c.ProgramLatencyNs < 0 || c.XferNsPerByte < 0 {
		return fmt.Errorf("ssd: negative latency %+v", c)
	}
	return nil
}

// Device is a queueing model of the drive. Each (channel, chip, die) tuple
// is a serial service unit; the channel interface is a second, shared
// resource. Requests carry an arrival time and experience queueing delay
// when their die or channel is busy.
//
// Device is safe for concurrent use.
type Device struct {
	cfg Config

	mu       sync.Mutex
	dieFree  []float64      // next-free time per die
	chanFree []float64      // next-free time per channel
	slotLen  map[uint64]int // bytes stored per spill slot
}

// New creates a Device. It panics on an invalid config; use
// Config.Validate to check first when the config is not a literal.
func New(cfg Config) *Device {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	nd := cfg.Channels * cfg.ChipsPerCh * cfg.DiesPerChip
	return &Device{
		cfg:      cfg,
		dieFree:  make([]float64, nd),
		chanFree: make([]float64, cfg.Channels),
		slotLen:  make(map[uint64]int),
	}
}

func (d *Device) dieFor(slot uint64) (die, channel int) {
	nd := len(d.dieFree)
	die = int(slot % uint64(nd))
	channel = die % d.cfg.Channels
	return die, channel
}

func (d *Device) pages(bytes int) int {
	return (bytes + d.cfg.PageBytes - 1) / d.cfg.PageBytes
}

// Write stores bytes for slot arriving at arrivalNs and returns the request
// latency in nanoseconds (queueing + transfer + program).
func (d *Device) Write(slot uint64, bytes int, arrivalNs float64) float64 {
	return d.access(slot, bytes, arrivalNs, true)
}

// Read fetches a previously written slot and returns the request latency.
// Reading a slot that was never written is a modelling error and panics:
// it means the compiler emitted a SPILL_IN without a matching SPILL_OUT.
func (d *Device) Read(slot uint64, arrivalNs float64) float64 {
	d.mu.Lock()
	bytes, ok := d.slotLen[slot]
	d.mu.Unlock()
	if !ok {
		panic(fmt.Sprintf("ssd: read of unwritten spill slot %d", slot))
	}
	return d.access(slot, bytes, arrivalNs, false)
}

func (d *Device) access(slot uint64, bytes int, arrivalNs float64, write bool) float64 {
	d.mu.Lock()
	defer d.mu.Unlock()

	die, ch := d.dieFor(slot)
	pages := d.pages(bytes)
	xfer := float64(bytes) * d.cfg.XferNsPerByte
	var flash float64
	if write {
		flash = float64(pages) * d.cfg.ProgramLatencyNs
	} else {
		flash = float64(pages) * d.cfg.ReadLatencyNs
	}

	start := arrivalNs
	if d.dieFree[die] > start {
		start = d.dieFree[die]
	}
	if d.chanFree[ch] > start {
		start = d.chanFree[ch]
	}
	end := start + xfer + flash

	d.dieFree[die] = end
	d.chanFree[ch] = start + xfer // channel freed after the burst
	if write {
		d.slotLen[slot] = bytes
	}
	return end - arrivalNs
}

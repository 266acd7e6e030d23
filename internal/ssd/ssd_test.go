package ssd

import (
	"math"
	"sync"
	"testing"
)

func TestDefaultConfigValid(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestValidateRejectsBad(t *testing.T) {
	c := DefaultConfig()
	c.Channels = 0
	if err := c.Validate(); err == nil {
		t.Error("zero channels accepted")
	}
	c = DefaultConfig()
	c.PageBytes = 0
	if err := c.Validate(); err == nil {
		t.Error("zero page accepted")
	}
	c = DefaultConfig()
	c.ReadLatencyNs = -1
	if err := c.Validate(); err == nil {
		t.Error("negative latency accepted")
	}
}

func TestWriteThenReadLatency(t *testing.T) {
	d := New(DefaultConfig())
	wl := d.Write(1, 8192, 0)
	if wl < DefaultConfig().ProgramLatencyNs {
		t.Errorf("write latency %.0f below program latency", wl)
	}
	// Read arriving after the write completes sees no queueing.
	rl := d.Read(1, wl+1)
	if rl < DefaultConfig().ReadLatencyNs {
		t.Errorf("read latency %.0f below flash read latency", rl)
	}
	if rl > DefaultConfig().ReadLatencyNs+float64(8192)*DefaultConfig().XferNsPerByte+1 {
		t.Errorf("unqueued read latency %.0f too high", rl)
	}
}

func TestReadUnwrittenPanics(t *testing.T) {
	d := New(DefaultConfig())
	defer func() {
		if recover() == nil {
			t.Error("read of unwritten slot did not panic")
		}
	}()
	d.Read(99, 0)
}

func TestQueueingBuildsUp(t *testing.T) {
	d := New(DefaultConfig()) // 1 die: everything serializes
	var last float64
	for i := 0; i < 10; i++ {
		lat := d.Write(uint64(i), 8192, 0) // all arrive at t=0
		if lat <= last {
			t.Fatalf("write %d latency %.0f did not grow (prev %.0f): no queueing", i, lat, last)
		}
		last = lat
	}
	// 8 KB rows fit one 16 KB page: the tenth write waits for nine programs.
	cfg := DefaultConfig()
	if want := 10 * (cfg.ProgramLatencyNs + 8192*cfg.XferNsPerByte); math.Abs(last-want) > 1 {
		t.Errorf("tenth write latency %.0f, want %.0f", last, want)
	}
}

func TestMultiChannelParallelism(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Channels = 4
	d := New(cfg)
	// Slots 0..3 map to different dies; simultaneous arrivals should not
	// queue behind each other (channel xfer aside).
	lat0 := d.Write(0, 8192, 0)
	lat1 := d.Write(1, 8192, 0)
	if lat1 > lat0+float64(8192)*cfg.XferNsPerByte+1 {
		t.Errorf("second channel write queued: %.0f vs %.0f", lat1, lat0)
	}
}

func TestMultiPageAccounting(t *testing.T) {
	cfg := DefaultConfig() // 16 KB pages
	d := New(cfg)
	// 40 KB = 3 pages programmed, all 40 KB over the channel.
	if got, want := d.Write(0, 40<<10, 0), 3*cfg.ProgramLatencyNs+float64(40<<10)*cfg.XferNsPerByte; got != want {
		t.Errorf("40 KB write latency %.0f, want %.0f", got, want)
	}
}

func TestConcurrentAccessSafe(t *testing.T) {
	d := New(DefaultConfig())
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				slot := uint64(g*100 + i)
				d.Write(slot, 4096, float64(i))
				d.Read(slot, float64(i)+1e9)
			}
		}(g)
	}
	wg.Wait()
}

package pci

import (
	"testing"

	"repro/internal/metrics"
	"repro/internal/sim"
)

func TestConfigAccessor(t *testing.T) {
	k := sim.NewKernel()
	cfg := DefaultConfig()
	b := New(k, cfg)
	if got := b.Config(); got != cfg {
		t.Fatalf("Config() = %+v, want %+v", got, cfg)
	}
}

func TestDMABlockingCost(t *testing.T) {
	cfg := DefaultConfig()
	end := run(t, func(k *sim.Kernel, b *Bus, p *sim.Proc) {
		b.DMA(p, 1000)
	})
	want := sim.Time(cfg.DMASetup + 1000*cfg.DMAPerByte + cfg.DMACompletionCheck)
	if end != want {
		t.Fatalf("DMA(1000) finished at %d, want %d", end, want)
	}
}

func TestDMAAsyncZeroLengthCompletes(t *testing.T) {
	k := sim.NewKernel()
	b := New(k, DefaultConfig())
	fired := false
	k.Spawn("cpu", func(p *sim.Proc) {
		b.DMAAsync(p, 0, func() { fired = true })
		p.Delay(1)
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if !fired {
		t.Fatal("zero-length async DMA never completed")
	}
}

func TestTwoDMAsQueueOnBus(t *testing.T) {
	cfg := DefaultConfig()
	k := sim.NewKernel()
	b := New(k, cfg)
	var first, second sim.Time
	k.Spawn("cpu", func(p *sim.Proc) {
		b.DMAAsync(p, 1000, func() { first = k.Now() })
		b.DMAAsync(p, 1000, func() { second = k.Now() })
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if second-first != sim.Time(1000*cfg.DMAPerByte) {
		t.Fatalf("second burst completed %d after first; want full burst %d",
			second-first, 1000*cfg.DMAPerByte)
	}
}

func TestNegativeCountsAreFree(t *testing.T) {
	end := run(t, func(k *sim.Kernel, b *Bus, p *sim.Proc) {
		b.PIOWrite(p, -3)
		b.PIORead(p, -1)
		b.DMA(p, -10)
	})
	if end != 0 {
		t.Fatalf("negative-count ops cost %d", end)
	}
}

// TestReadStallsBehindDMA checks that a PIO read issued while a
// DMAAsync burst holds the bus completes only after the burst drains
// plus its own round trip, whether the CPU blocks in PIORead or books
// the read with IssueRead and waits for it as an event — and that both
// charge the same bus counters.
func TestReadStallsBehindDMA(t *testing.T) {
	cfg := DefaultConfig()
	const n = 1000
	drained := sim.Time(cfg.DMASetup + n*cfg.DMAPerByte)
	for _, c := range []struct {
		name  string
		words int
		burst bool
		cost  sim.Duration
	}{
		{"word", 1, false, cfg.PIOReadWord},
		{"words", 3, false, 3 * cfg.PIOReadWord},
		{"burst", 4, true, cfg.PIOReadWord + 3*cfg.PIOReadBurstWord},
	} {
		t.Run(c.name, func(t *testing.T) {
			want := drained.Add(c.cost)
			var blocking, issued sim.Time
			var stall sim.Duration
			for _, viaIssue := range []bool{false, true} {
				k := sim.NewKernel()
				b := New(k, cfg)
				reg := metrics.New()
				b.SetMetrics(reg, 0)
				k.Spawn("dma", func(p *sim.Proc) { b.DMAAsync(p, n, nil) })
				k.Spawn("cpu", func(p *sim.Proc) {
					p.Delay(cfg.DMASetup) // the burst now holds the bus
					switch {
					case viaIssue:
						stall = b.IssueRead(c.words, c.burst)
						k.AfterKind(stall, sim.KindProc, func() { issued = k.Now() })
					case c.burst:
						p.Delay(b.IssueRead(c.words, true))
						blocking = p.Now()
					default:
						b.PIORead(p, c.words)
						blocking = p.Now()
					}
				})
				if err := k.Run(); err != nil {
					t.Fatal(err)
				}
				snap := reg.Snapshot()
				busy, _ := snap.Counter("pci.busy_ns", 0)
				if wantBusy := int64(n*cfg.DMAPerByte + c.cost); busy != wantBusy {
					t.Errorf("issue=%v: pci.busy_ns = %d, want %d", viaIssue, busy, wantBusy)
				}
				words, _ := snap.Counter("pci.pio_read_words", 0)
				bursts, _ := snap.Counter("pci.pio_read_bursts", 0)
				if c.burst && (words != 0 || bursts != 1) || !c.burst && (words != int64(c.words) || bursts != 0) {
					t.Errorf("issue=%v: read counters words=%d bursts=%d", viaIssue, words, bursts)
				}
			}
			if blocking != want || issued != want {
				t.Fatalf("read done at %d (blocking) and %d (issued), want %d after the burst drains at %d", blocking, issued, want, drained)
			}
			if want := want.Sub(sim.Time(cfg.DMASetup)); stall != want {
				t.Fatalf("IssueRead stall = %d, want %d", stall, want)
			}
		})
	}
}

// TestIssueReadNothing checks that an empty read books nothing.
func TestIssueReadNothing(t *testing.T) {
	b := New(sim.NewKernel(), DefaultConfig())
	if d := b.IssueRead(0, true); d != 0 {
		t.Fatalf("IssueRead(0) stalls %d", d)
	}
	if d := b.IssueRead(1, false); d != DefaultConfig().PIOReadWord {
		t.Fatalf("IssueRead(1) on an idle bus stalls %d", d)
	}
}

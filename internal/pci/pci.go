// Package pci models the workstation I/O bus that sits between a host
// CPU and a network interface card.
//
// The paper's testbed (dual Pentium II 300 MHz, 32-bit/33 MHz PCI) has an
// asymmetry that dominates the BillBoard Protocol's receive path: posted
// PIO writes to a device are cheap, while PIO reads stall the CPU for a
// full bus round trip ("polling requires memory access across the I/O
// bus which increases the receive overhead", §7 of the paper). DMA avoids
// per-word CPU involvement at the price of a fixed setup cost, which is
// why it only pays off for bulk transfers.
//
// All costs are charged in virtual time against the calling simulation
// process; concurrent DMA occupies a per-bus FIFO server so that PIO
// issued during a DMA burst queues behind it. IssueRead books a read
// without blocking anyone, for callers that wait for it as an event.
package pci

import (
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/trace"
)

// Config holds bus timing parameters. The defaults approximate 32-bit /
// 33 MHz PCI on a 1998 workstation and are the values used for figure
// calibration (see DESIGN.md §5).
type Config struct {
	// PIOWriteWord is the CPU cost of one posted 32-bit write to device
	// memory. Posted writes complete as soon as they enter the bridge
	// write buffer.
	PIOWriteWord sim.Duration
	// PIOReadWord is the CPU cost of one 32-bit read from device memory:
	// a non-posted transaction, roughly 5x a write.
	PIOReadWord sim.Duration
	// PIOReadBurstWord is the per-additional-word cost of an aligned
	// multi-word PIO read burst: the first word pays the full PIOReadWord
	// round trip (address phase, bridge turnaround, device latency), and
	// each subsequent word of the open transaction streams back at the
	// bus data rate — one 33 MHz data phase. Only fixed, aligned control
	// windows the card can satisfy from a single internal fetch are
	// burst-readable (see scramnet.NIC.ReadWords); arbitrary payload
	// reads through the non-prefetchable aperture stay word-priced.
	PIOReadBurstWord sim.Duration
	// DMASetup is the fixed CPU cost of programming the DMA engine
	// (descriptor writes plus doorbell).
	DMASetup sim.Duration
	// DMAPerByte is the bus occupancy per byte moved by DMA bursts.
	DMAPerByte sim.Duration
	// DMACompletionCheck is the CPU cost of observing DMA completion
	// (a status register read).
	DMACompletionCheck sim.Duration
}

// DefaultConfig returns timings for 32-bit/33 MHz PCI.
func DefaultConfig() Config {
	return Config{
		PIOWriteWord:       150 * sim.Nanosecond,
		PIOReadWord:        650 * sim.Nanosecond,
		PIOReadBurstWord:   30 * sim.Nanosecond, // one 33 MHz data phase
		DMASetup:           2 * sim.Microsecond,
		DMAPerByte:         12 * sim.Nanosecond, // ~83 MB/s sustained burst
		DMACompletionCheck: 750 * sim.Nanosecond,
	}
}

// Bus is one node's I/O bus.
type Bus struct {
	k      *sim.Kernel
	cfg    Config
	srv    *sim.Server
	im     busInstruments
	tracer *trace.Recorder
	node   int
}

// busInstruments are the bus's metrics. All fields are nil until
// SetMetrics installs a registry; nil instruments are no-ops.
type busInstruments struct {
	pioWriteWords *metrics.Counter // pci.pio_write_words
	pioReadWords  *metrics.Counter // pci.pio_read_words (single-word reads)
	pioReadBursts *metrics.Counter // pci.pio_read_bursts (burst transactions)
	pioBurstWords *metrics.Counter // pci.pio_read_burst_words (words moved by bursts)
	dmaBursts     *metrics.Counter // pci.dma_bursts
	dmaBytes      *metrics.Counter // pci.dma_bytes
	busyNs        *metrics.Counter // pci.busy_ns: total bus occupancy
}

// New returns a bus on kernel k.
func New(k *sim.Kernel, cfg Config) *Bus {
	return &Bus{k: k, cfg: cfg, srv: sim.NewServer(k)}
}

// SetMetrics installs metrics instruments for this bus, attributed to
// the given node (nil disables).
func (b *Bus) SetMetrics(m *metrics.Registry, node int) {
	if m == nil {
		b.im = busInstruments{}
		return
	}
	b.im = busInstruments{
		pioWriteWords: m.Counter("pci.pio_write_words", node),
		pioReadWords:  m.Counter("pci.pio_read_words", node),
		pioReadBursts: m.Counter("pci.pio_read_bursts", node),
		pioBurstWords: m.Counter("pci.pio_read_burst_words", node),
		dmaBursts:     m.Counter("pci.dma_bursts", node),
		dmaBytes:      m.Counter("pci.dma_bytes", node),
		busyNs:        m.Counter("pci.busy_ns", node),
	}
}

// SetTracer installs a trace recorder for this bus, attributed to the
// given node (nil disables). The bus emits only instants (DMA bursts),
// never spans, and charges no extra virtual time for them.
func (b *Bus) SetTracer(r *trace.Recorder, node int) {
	b.tracer = r
	b.node = node
}

// Config returns the bus timing parameters.
func (b *Bus) Config() Config { return b.cfg }

// book queues d of bus occupancy behind any in-flight DMA and returns
// the issuing CPU's stall: the time from now until the occupancy ends.
func (b *Bus) book(d sim.Duration) sim.Duration {
	return b.srv.Serve(d, nil).Sub(b.k.Now())
}

// PIOWrite charges the cost of writing words 32-bit words to the device.
func (b *Bus) PIOWrite(p *sim.Proc, words int) {
	if words <= 0 {
		return
	}
	b.im.pioWriteWords.Add(int64(words))
	b.im.busyNs.Add(int64(words) * int64(b.cfg.PIOWriteWord))
	p.Delay(b.book(sim.Duration(words) * b.cfg.PIOWriteWord))
}

// IssueRead books a words-long PIO read on the bus without blocking and
// returns the CPU's stall until the data arrives: one aligned burst
// (see Config.PIOReadBurstWord) when burst is set, words single-word
// round trips otherwise. Burst words are counted separately from
// single-word reads — pci.pio_read_words keeps its §7 meaning of "reads
// that each cost a full bus round trip". PIORead is IssueRead plus a
// Delay of the stall; an event-driven poller instead schedules its
// sample of the device at the end of the stall.
func (b *Bus) IssueRead(words int, burst bool) sim.Duration {
	if words <= 0 {
		return 0
	}
	cost := sim.Duration(words) * b.cfg.PIOReadWord
	if burst {
		cost = b.BurstReadCost(words)
		b.im.pioReadBursts.Inc()
		b.im.pioBurstWords.Add(int64(words))
	} else {
		b.im.pioReadWords.Add(int64(words))
	}
	b.im.busyNs.Add(int64(cost))
	return b.book(cost)
}

// PIORead charges the cost of reading words 32-bit words from the device.
func (b *Bus) PIORead(p *sim.Proc, words int) {
	p.Delay(b.IssueRead(words, false))
}

// BurstReadCost returns the modeled cost of one aligned words-long PIO
// read burst: a full PIOReadWord round trip for the first word, then
// one PIOReadBurstWord data phase per remaining word. Exported so the
// protocol layer can decide, from the same numbers the bus will charge,
// whether a burst beats the per-word probes it would replace.
func (b *Bus) BurstReadCost(words int) sim.Duration {
	if words <= 0 {
		return 0
	}
	return b.cfg.PIOReadWord + sim.Duration(words-1)*b.cfg.PIOReadBurstWord
}

// DMA performs a blocking DMA transfer of n bytes between host memory and
// the device: setup, burst occupancy, completion check. The calling
// process is blocked for the full duration (the simple synchronous shape
// used by the BBP bulk path); use DMAAsync to overlap.
func (b *Bus) DMA(p *sim.Proc, n int) {
	if n <= 0 {
		return
	}
	b.CountDMABurst(n)
	p.Delay(b.cfg.DMASetup)
	p.Delay(b.book(sim.Duration(n) * b.cfg.DMAPerByte))
	p.Delay(b.cfg.DMACompletionCheck)
}

// CountDMABurst records one n-byte DMA burst in the bus metrics. It is
// also called by engines that charge their own burst occupancy (the
// NIC's ring-overlapped transmit path) so that every DMA byte crossing
// the bus is accounted for exactly once.
func (b *Bus) CountDMABurst(n int) {
	b.im.dmaBursts.Inc()
	b.im.dmaBytes.Add(int64(n))
	b.im.busyNs.Add(int64(n) * int64(b.cfg.DMAPerByte))
	b.tracer.Emit(b.k.Now(), trace.Host, b.node, "dma-burst", 0, 0, "len=%d", trace.Int(n))
}

// DMAAsync charges setup on the caller, schedules the burst on the bus,
// and invokes done when the transfer completes. The caller continues
// computing while the engine runs.
func (b *Bus) DMAAsync(p *sim.Proc, n int, done func()) {
	p.Delay(b.cfg.DMASetup)
	if n <= 0 {
		if done != nil {
			b.k.AfterKind(0, sim.KindBus, done)
		}
		return
	}
	b.CountDMABurst(n)
	b.srv.Serve(sim.Duration(n)*b.cfg.DMAPerByte, done)
}

// WordsFor returns the number of 32-bit bus transactions needed to move
// n bytes by PIO.
func WordsFor(n int) int { return (n + 3) / 4 }

package scramnet

import (
	"encoding/binary"
	"fmt"

	"repro/internal/metrics"
	"repro/internal/pci"
	"repro/internal/sim"
	"repro/internal/spin"
	"repro/internal/trace"
)

// NIC is one node's SCRAMNet interface card: a full replica of the
// shared memory bank, a host bus attachment, and a ring link.
type NIC struct {
	net *Network
	id  int
	// ownerID identifies this card's host in the single-writer table;
	// it equals id on a flat ring and the global host number in a
	// hierarchy.
	ownerID int
	mem     bank
	bus     *pci.Bus

	link      *sim.Server // outgoing ring link (local + transit traffic)
	txBacklog int         // bytes queued in the transmit FIFO
	txDrain   *sim.Cond

	failed bool

	// Trace context stamped onto every packet this card injects. The
	// BBP layer sets it around the bus writes belonging to one message;
	// safe without locking because nic.send runs synchronously inside
	// the calling simulation process.
	ctxMsg  uint64
	ctxSpan trace.SpanID

	intrOn      bool
	intrHandler func(off int)
	// onApply, when set, observes every remote write applied to this
	// bank (used by hierarchy bridges to forward between rings).
	onApply func(pkt *packet)

	// handlers is the card's in-network handler engine (internal/spin),
	// created lazily on the first InstallHandler so an un-handled card
	// adds nothing to the transit path. mreg remembers the metrics
	// registry so a lazily created engine gets its spin.* instruments.
	handlers *spin.Engine
	hctx     spin.HandlerCtx
	mreg     *metrics.Registry

	stats Stats
}

// setMetrics binds this card's Stats under its host number and wires
// the host bus with the same node id.
func (nic *NIC) setMetrics(m *metrics.Registry) {
	m.Bind("ring.packets_injected", nic.ownerID, &nic.stats.PacketsSent)
	m.Bind("ring.packets_applied", nic.ownerID, &nic.stats.PacketsApplied)
	m.Bind("ring.packets_lost", nic.ownerID, &nic.stats.PacketsLost)
	m.Bind("ring.bytes_injected", nic.ownerID, &nic.stats.BytesSent)
	m.Bind("ring.interrupts_taken", nic.ownerID, &nic.stats.InterruptsTaken)
	m.Bind("ring.packets_combined", nic.ownerID, &nic.stats.PacketsCombined)
	nic.bus.SetMetrics(m, nic.ownerID)
	nic.mreg = m
	if nic.handlers != nil {
		nic.handlers.SetMetrics(m)
	}
}

// SetTraceContext attributes subsequent injections from this card to
// message msg under parent span parent, returning the previous context
// so the caller can restore it (two processes — the application and the
// retry daemon — share one card). Cheap enough to call unconditionally;
// it only labels trace events. If one process blocks mid-write while
// the other holds the context, a packet label can momentarily attach to
// the wrong message; this affects only ring-span attribution, never the
// protocol events themselves, which carry explicit ids.
func (nic *NIC) SetTraceContext(msg uint64, parent trace.SpanID) (prevMsg uint64, prevParent trace.SpanID) {
	prevMsg, prevParent = nic.ctxMsg, nic.ctxSpan
	nic.ctxMsg, nic.ctxSpan = msg, parent
	return
}

// ID returns the ring node number.
func (nic *NIC) ID() int { return nic.id }

// Bus returns the host I/O bus the card is attached to.
func (nic *NIC) Bus() *pci.Bus { return nic.bus }

// LinkUp reports whether the card sees carrier on its ring receiver. A
// bypassed (failed) card loses carrier; the host can sample this status
// register to notice it was partitioned from the ring and rejoin with a
// fresh identity once the bypass is removed.
func (nic *NIC) LinkUp() bool { return !nic.failed }

// RingCuts returns the number of severed ring segments the card's ring
// status register reports. Each arc of a partitioned ring borders both
// cuts, so the count is arc-local knowledge: hosts sample it alongside
// LinkUp as the hardware evidence that distinguishes a partitioned
// peer from a dead one.
func (nic *NIC) RingCuts() int { return nic.net.cuts }

// NetworkConfig returns the configuration of the ring this card sits
// on (used by layers that need propagation bounds).
func (nic *NIC) NetworkConfig() Config { return nic.net.cfg }

// Size returns the replicated memory size in bytes.
func (nic *NIC) Size() int { return nic.mem.size }

// Stats returns a copy of the card's counters.
func (nic *NIC) Stats() Stats { return nic.stats }

// AssignOwner transfers single-writer ownership of the words covering
// [off, off+n) to the given host number, overwriting the recorded
// owner. Protocol layers call it at explicit hand-over points (posting
// and reclaiming a rendezvous window); it is bookkeeping only and
// charges no bus or wire time.
func (nic *NIC) AssignOwner(owner, off, n int) {
	nic.checkRange(off, n)
	nic.net.assignOwner(owner, off, n)
}

// checkWriter enforces the single-writer discipline for a host write
// from this card. A bypassed (failed) card is exempt: its transmitter
// drives the optical bypass loop, so its writes reach no other bank and
// cannot conflict with a live writer — in particular, a dead sender
// blindly finishing a rendezvous window whose words have already been
// reclaimed and re-lent by the receiver must not trip the assertion.
func (nic *NIC) checkWriter(off, n int) {
	if nic.failed {
		return
	}
	nic.net.checkOwner(nic.ownerID, off, n)
}

// DrainBound returns a conservative virtual time by which every write
// this card has issued so far will have been applied at every live
// node: the transmit link's busy horizon (all queued local and transit
// packets serialized) plus one full revolution of worst-case hop and
// wire delays. Layers that pipeline writes against ring circulation
// (the rendezvous window path) use it to bound how far they run ahead.
func (nic *NIC) DrainBound() sim.Time {
	t := nic.net.k.Now()
	if busy := nic.link.BusyUntil(); busy > t {
		t = busy
	}
	cfg := nic.net.cfg
	wire := cfg.FixedPacketWire
	if cfg.Mode == VariablePackets {
		wire = cfg.VarHeaderWire + sim.Duration(MaxVarPayload)*cfg.VarPerByteWire
	}
	return t.Add(sim.Duration(cfg.Nodes) * (cfg.HopDelay + wire))
}

func (nic *NIC) checkRange(off, n int) {
	if off < 0 || n < 0 || off+n > nic.mem.size {
		panic(fmt.Sprintf("scramnet: access [%d,%d) outside %d-byte bank", off, off+n, nic.mem.size))
	}
}

// apply installs a remote write into the local bank (called by the ring).
func (nic *NIC) apply(pkt *packet) {
	nic.mem.write(pkt.off, pkt.data)
	nic.stats.PacketsApplied++
	nic.net.tracer.Emit(nic.net.k.Now(), trace.Ring, nic.id, "apply", pkt.msg, pkt.span, "off=%#x len=%d from=%d", trace.Int(pkt.off), trace.Int(len(pkt.data)), trace.Int(pkt.origin))
	if pkt.interrupt && nic.intrOn && nic.intrHandler != nil {
		// Capture the handler at vectoring time: the host may disable
		// or reconfigure interrupts during the dispatch latency, and
		// the card must deliver through the vector it latched, not
		// through whatever the field holds when the timer fires (a nil
		// there used to panic the simulation).
		off, h := pkt.off, nic.intrHandler
		nic.stats.InterruptsTaken++
		nic.net.k.AfterKind(nic.net.cfg.InterruptLatency, sim.KindIntr, func() { h(off) })
	}
	if nic.onApply != nil {
		nic.onApply(pkt)
	}
}

// stripApply installs a handler-rewritten packet into the origin's own
// bank at strip time, closing the streaming-reduction loop: after one
// revolution the initiator's replica holds the fully combined lanes.
// Not an "apply" for accounting purposes — the trace/metrics identity
// (apply events == ring.packets_applied) counts remote applies only.
func (nic *NIC) stripApply(pkt *packet) {
	nic.mem.write(pkt.off, pkt.data)
	nic.net.tracer.Emit(nic.net.k.Now(), trace.Spin, nic.id, "strip-apply", pkt.msg, pkt.span, "off=%#x len=%d", trace.Int(pkt.off), trace.Int(len(pkt.data)))
}

// InstallHandler registers an in-network handler (internal/spin) for
// ring packets overlapping [off, off+n) at this card's transit point.
// Handlers run before the local apply and the forward decision, in
// install order, and their cycle cost is charged in virtual time per
// Config.HandlerCycleCost / Config.HandlerBudget.
func (nic *NIC) InstallHandler(off, n int, h spin.Handler) {
	nic.checkRange(off, n)
	if nic.handlers == nil {
		nic.handlers = spin.NewEngine(nic.ownerID, nic.net.cfg.HandlerBudget)
		if nic.mreg != nil {
			nic.handlers.SetMetrics(nic.mreg)
		}
		nic.hctx = spin.HandlerCtx{Node: nic.id, Word: nic.SampleWord}
	}
	nic.handlers.Install(off, n, h)
}

// HandlerStats returns a copy of the card's spin.* counters (zero when
// no handler was ever installed).
func (nic *NIC) HandlerStats() spin.Stats {
	if nic.handlers == nil {
		return spin.Stats{}
	}
	return nic.handlers.Stats()
}

// transit runs the card's in-network handlers against a packet hopping
// through, returning the verdict, the virtual-time cost to charge
// before the packet progresses, and the open handler span (closed by
// the ring once the cost has elapsed). ran is false — and everything
// else zero — when no installed range overlaps the packet, which keeps
// un-handled traffic cost-free.
func (nic *NIC) transit(pkt *packet) (v spin.Verdict, cost sim.Duration, span trace.SpanID, ran bool) {
	if nic.handlers == nil || !nic.handlers.Covers(pkt.off, len(pkt.data)) {
		return spin.Forward, 0, 0, false
	}
	net := nic.net
	nic.hctx.Now = net.k.Now()
	span = net.tracer.BeginSpan(net.k.Now(), trace.Spin, nic.id, "handler", pkt.msg, pkt.span, "off=%#x len=%d from=%d", trace.Int(pkt.off), trace.Int(len(pkt.data)), trace.Int(pkt.origin))
	v, cycles, trapped := nic.handlers.Run(&nic.hctx, spin.Packet{Origin: pkt.origin, Off: pkt.off, Hops: pkt.hops, Data: pkt.data, Interrupt: pkt.interrupt})
	if v == spin.Rewrite {
		pkt.rewritten = true
		nic.stats.PacketsCombined++
	}
	if trapped {
		net.tracer.Emit(net.k.Now(), trace.Spin, nic.id, "trap", pkt.msg, span, "budget=%d", trace.Int(net.cfg.HandlerBudget))
	}
	return v, sim.Duration(cycles) * net.cfg.HandlerCycleCost, span, true
}

// crossHop re-posts a write that arrived from another ring on its
// bridge NIC, pkt's origin, as if that NIC's host had written it (used
// by hierarchy bridges; no bus time is charged — the bridge moves data
// NIC-to-NIC in hardware). The bank is updated now, as for a host
// write. The bridge took pkt from this ring's free list when the write
// reached it, so pkt already carries the payload and the originating
// packet's trace attribution.
func (pkt *packet) crossHop() {
	nic := pkt.net.nics[pkt.origin]
	nic.mem.write(pkt.off, pkt.data)
	nic.txBacklog += len(pkt.data)
	pkt.net.inject(pkt)
}

// stallTxFIFO blocks the host process until the transmit FIFO can accept
// n more bytes. This is the mechanism that throttles PIO streams to the
// ring rate.
func (nic *NIC) stallTxFIFO(p *sim.Proc, n int) {
	for nic.txBacklog+n > nic.net.cfg.TxFIFOBytes {
		nic.txDrain.Wait(p)
	}
	nic.txBacklog += n
}

// send chunks [off, off+len(data)) into ring packets and injects them.
// charge is invoked with each chunk's byte count before the FIFO stall so
// that host-bus time overlaps the wire drain, as it does in hardware.
// The local bank has already been updated by the caller.
func (nic *NIC) send(p *sim.Proc, off int, data []byte, interrupt bool, charge func(chunk int)) {
	max := nic.net.maxPayload()
	for len(data) > 0 {
		n := len(data)
		if n > max {
			n = max
		}
		pkt := nic.net.newPacket(nic.id, off, data[:n], interrupt, nic.ctxMsg, nic.ctxSpan)
		if charge != nil {
			charge(n)
		}
		nic.stallTxFIFO(p, n)
		nic.net.inject(pkt)
		off += n
		data = data[n:]
	}
}

// WriteWord performs one posted PIO word write: local bank update plus a
// ring packet. This is the paper's "single store instruction" path.
func (nic *NIC) WriteWord(p *sim.Proc, off int, v uint32) {
	nic.writeWord(p, off, v, false)
}

// WriteWordInterrupt is WriteWord with the packet's interrupt bit set:
// receivers with interrupts enabled take one on arrival.
func (nic *NIC) WriteWordInterrupt(p *sim.Proc, off int, v uint32) {
	nic.writeWord(p, off, v, true)
}

func (nic *NIC) writeWord(p *sim.Proc, off int, v uint32, intr bool) {
	nic.checkRange(off, 4)
	nic.checkWriter(off, 4)
	nic.bus.PIOWrite(p, 1)
	var b [4]byte
	binary.LittleEndian.PutUint32(b[:], v)
	nic.mem.write(off, b[:])
	nic.send(p, off, b[:], intr, nil)
}

// ReadWord performs one PIO word read from the local bank. Reads never
// generate ring traffic — the data is already local. That the read still
// costs a full bus round trip is what makes polling expensive (§7).
func (nic *NIC) ReadWord(p *sim.Proc, off int) uint32 {
	p.Delay(nic.IssueRead(off, 1, false))
	return nic.SampleWord(off)
}

// IssueRead books a PIO read of the words words at off on the host
// bus — one burst transaction (ReadWords; off must be word-aligned)
// when burst is set, single-word reads (ReadWord) otherwise — without
// blocking, and returns the stall until the data reaches the CPU. The
// read returns the bank as it is when the stall ends: the caller
// samples it then with SampleWord or SampleWords.
func (nic *NIC) IssueRead(off, words int, burst bool) sim.Duration {
	if burst && off%4 != 0 {
		panic(fmt.Sprintf("scramnet: burst read at unaligned offset %#x", off))
	}
	nic.checkRange(off, 4*words)
	return nic.bus.IssueRead(words, burst)
}

// SampleWord returns the bank word at off without charging bus time:
// what a read IssueRead booked returns once its stall has elapsed.
func (nic *NIC) SampleWord(off int) uint32 {
	nic.checkRange(off, 4)
	return nic.mem.word(off)
}

// SampleWords fills dst with the bank words from off without charging
// bus time, like SampleWord.
func (nic *NIC) SampleWords(off int, dst []uint32) {
	nic.checkRange(off, 4*len(dst))
	for i := range dst {
		dst[i] = nic.mem.word(off + 4*i)
	}
}

// Write copies data into the bank at off with PIO word writes and
// replicates it. data need not be word-aligned in length; the tail word
// is read-modify-written locally.
func (nic *NIC) Write(p *sim.Proc, off int, data []byte) {
	if len(data) == 0 {
		return
	}
	nic.checkRange(off, len(data))
	nic.checkWriter(off, len(data))
	nic.mem.write(off, data)
	nic.send(p, off, data, false, func(chunk int) {
		nic.bus.PIOWrite(p, pci.WordsFor(chunk))
	})
}

// WriteDMA is Write using the DMA engine: fixed setup cost, then the
// engine streams the block across the bus without per-word CPU work.
// The calling process blocks until the engine finishes handing the block
// to the transmit FIFO.
func (nic *NIC) WriteDMA(p *sim.Proc, off int, data []byte) {
	if len(data) == 0 {
		return
	}
	nic.checkRange(off, len(data))
	nic.checkWriter(off, len(data))
	nic.mem.write(off, data)
	cfg := nic.bus.Config()
	nic.bus.CountDMABurst(len(data))
	p.Delay(cfg.DMASetup)
	nic.send(p, off, data, false, func(chunk int) {
		p.Delay(sim.Duration(chunk) * cfg.DMAPerByte)
	})
	p.Delay(cfg.DMACompletionCheck)
}

// ReadWords fills dst with len(dst) consecutive 32-bit words starting
// at the word-aligned offset off, as one burst read transaction. The
// card satisfies a small aligned window from a single internal fetch,
// so the host pays one non-posted round trip plus one bus data phase
// per additional word (pci.Bus.BurstReadCost) — the wide-read poll path.
// Arbitrary-length payload reads (Read) go through the non-prefetchable
// aperture and stay word-priced; this operation is only for fixed
// control windows such as a receiver's MESSAGE-flag region.
func (nic *NIC) ReadWords(p *sim.Proc, off int, dst []uint32) {
	if len(dst) == 0 {
		return
	}
	p.Delay(nic.IssueRead(off, len(dst), true))
	nic.SampleWords(off, dst)
}

// Read copies n bytes from the local bank into buf with PIO word reads.
func (nic *NIC) Read(p *sim.Proc, off int, buf []byte) {
	if len(buf) == 0 {
		return
	}
	nic.checkRange(off, len(buf))
	nic.bus.PIORead(p, pci.WordsFor(len(buf)))
	nic.mem.read(off, buf)
}

// ReadDMA copies n bytes from the local bank into buf using the DMA
// engine (no ring traffic either way).
func (nic *NIC) ReadDMA(p *sim.Proc, off int, buf []byte) {
	if len(buf) == 0 {
		return
	}
	nic.checkRange(off, len(buf))
	nic.bus.DMA(p, len(buf))
	nic.mem.read(off, buf)
}

// Peek returns bank bytes without charging bus time. It is for tests and
// invariant checks only, never for modeled software paths.
func (nic *NIC) Peek(off, n int) []byte {
	nic.checkRange(off, n)
	b := make([]byte, n)
	nic.mem.read(off, b)
	return b
}

// EnableInterrupts turns interrupt delivery on or off and installs the
// handler invoked (after Config.InterruptLatency) for each arriving
// packet that carries the interrupt bit. Enabling with a nil handler
// is equivalent to disabling: the card masks the interrupt rather than
// vectoring through a null pointer on the first interrupt-bit packet.
func (nic *NIC) EnableInterrupts(on bool, handler func(off int)) {
	nic.intrOn = on && handler != nil
	nic.intrHandler = handler
}

// Package scramnet models the SCRAMNet (Shared Common RAM Network)
// replicated shared-memory ring described in §2 of the paper.
//
// Every node's NIC carries a full replica of the shared address space.
// When a host writes a word into its NIC, the NIC updates the local bank
// immediately and injects a packet that circulates the ring: each node it
// passes applies the write to its own bank and forwards it, and the
// originating node strips it after a full revolution. Consequences the
// BillBoard Protocol depends on, and which this model reproduces
// mechanically rather than by formula:
//
//   - writes by one node are applied at every other node in issue order
//     (per-sender FIFO), with bounded, predictable latency;
//   - writes by different nodes may be observed in different orders at
//     different nodes (the memory is NOT coherent);
//   - transmission is either fixed 4-byte packets (max 6.5 MB/s) or
//     variable-length packets of 4 B–1 KB (max 16.7 MB/s, higher
//     latency), per §2;
//   - neighbor-to-neighbor latency is 250–800 ns depending on the
//     transmission mode and cabling.
//
// Host access goes through a pci.Bus: posted PIO writes, expensive PIO
// reads, or DMA for bulk transfers. A transmit FIFO of bounded depth sits
// between the host and the ring; when the host outruns the wire the FIFO
// fills and further writes stall, which is what limits long-message
// bandwidth to the ring rate.
package scramnet

import (
	"fmt"

	"repro/internal/metrics"
	"repro/internal/pci"
	"repro/internal/sim"
	"repro/internal/spin"
	"repro/internal/trace"
)

// Mode selects the ring transmission mode (§2 of the paper).
type Mode int

const (
	// FixedPackets transmits fixed 4-byte packets: lowest latency,
	// 6.5 MB/s maximum throughput.
	FixedPackets Mode = iota
	// VariablePackets transmits 4 B–1 KB packets: 16.7 MB/s maximum
	// throughput but higher per-packet latency.
	VariablePackets
)

func (m Mode) String() string {
	if m == FixedPackets {
		return "fixed-4B"
	}
	return "variable"
}

// MaxNodes is the architectural ring size limit (§2: "a ring of up to
// 256 nodes").
const MaxNodes = 256

// MaxVarPayload is the largest variable-mode packet payload.
const MaxVarPayload = 1024

// Config describes a SCRAMNet ring.
type Config struct {
	// Nodes is the ring size (2..MaxNodes).
	Nodes int
	// MemBytes is the size of the replicated memory bank (word multiple).
	MemBytes int
	// Mode selects fixed or variable packets.
	Mode Mode
	// HopDelay is the node-to-node propagation plus node transit delay.
	// The paper gives 250–800 ns depending on mode and media.
	HopDelay sim.Duration
	// FixedPacketWire is the serialization time of one fixed 4-byte
	// packet (4 B / 6.5 MB/s ≈ 615 ns).
	FixedPacketWire sim.Duration
	// VarHeaderWire and VarPerByteWire give variable-packet
	// serialization: header + payload·perByte (1 B / 16.7 MB/s ≈ 60 ns).
	VarHeaderWire  sim.Duration
	VarPerByteWire sim.Duration
	// TxFIFOBytes is the transmit FIFO depth between host and ring.
	TxFIFOBytes int
	// Bus gives host I/O bus timings.
	Bus pci.Config
	// InterruptLatency is the cost from packet arrival to the host
	// handler running (interrupt + kernel dispatch + context switch).
	InterruptLatency sim.Duration
	// DualRing enables the redundant second ring: a bypassed (failed)
	// node is skipped optically and replication continues.
	DualRing bool
	// SingleWriterCheck, when set, panics if two different nodes ever
	// write the same word — the BillBoard Protocol's core discipline.
	SingleWriterCheck bool
	// Seed drives the fault-injection generator (Network.SetDropRate).
	Seed uint64
	// HandlerCycleCost is the virtual-time cost of one in-network
	// handler cycle (internal/spin) at a ring transit point. Zero
	// selects DefaultHandlerCycleCost. Handler cost is charged only on
	// packets overlapping an installed handler range, so an un-handled
	// ring reproduces the calibrated figures exactly.
	HandlerCycleCost sim.Duration
	// HandlerBudget caps the handler cycles one packet may consume at
	// one transit; on overrun the packet traps to the host — handler
	// mutations roll back and the packet proceeds as if unhandled.
	// Zero selects DefaultHandlerBudget.
	HandlerBudget int64
}

// Default in-network handler cost parameters: a ~200 MHz handler core
// (5 ns/cycle, the sPIN ballpark) and a budget generous enough for a
// full 1 KB variable packet's worth of lane combines, small enough
// that a runaway handler stalls one transit by at most ~1.3 µs.
const (
	DefaultHandlerCycleCost = 5 * sim.Nanosecond
	DefaultHandlerBudget    = 260
)

// DefaultConfig returns a ring matching the paper's testbed: 4 nodes,
// fixed 4-byte packets, fiber hop delay, 2 MB banks, PCI host interface.
func DefaultConfig(nodes int) Config {
	return Config{
		Nodes:            nodes,
		MemBytes:         2 << 20,
		Mode:             FixedPackets,
		HopDelay:         250 * sim.Nanosecond,
		FixedPacketWire:  615 * sim.Nanosecond,
		VarHeaderWire:    240 * sim.Nanosecond,
		VarPerByteWire:   60 * sim.Nanosecond,
		TxFIFOBytes:      1024,
		Bus:              pci.DefaultConfig(),
		InterruptLatency: 9 * sim.Microsecond,
		DualRing:         true,
	}
}

func (c *Config) validate() error {
	if c.Nodes < 2 || c.Nodes > MaxNodes {
		return fmt.Errorf("scramnet: %d nodes outside 2..%d", c.Nodes, MaxNodes)
	}
	if c.MemBytes <= 0 || c.MemBytes%4 != 0 {
		return fmt.Errorf("scramnet: memory size %d not a positive word multiple", c.MemBytes)
	}
	if c.TxFIFOBytes < 4 {
		return fmt.Errorf("scramnet: TX FIFO %d too small", c.TxFIFOBytes)
	}
	if c.HandlerCycleCost < 0 {
		return fmt.Errorf("scramnet: negative HandlerCycleCost %v", c.HandlerCycleCost)
	}
	if c.HandlerBudget < 0 {
		return fmt.Errorf("scramnet: negative HandlerBudget %d", c.HandlerBudget)
	}
	return nil
}

// packet is one ring transfer unit. hops counts link traversals so a
// packet whose origin has been bypassed (and therefore can never strip
// it) still ages out after one full revolution.
//
// Packets are recycled: Network.newPacket takes one from the ring's
// free list and Network.release returns it at whichever of the six
// terminal points ends its trip (bypassed origin, CRC drop, ring
// broken, isolated, strip, consumed). A released packet has a nil net,
// so a hop step that ran on one would fault at once.
type packet struct {
	net       *Network
	origin    int
	off       int
	data      []byte
	interrupt bool
	hops      int
	// rewritten marks a payload mutated by an in-network handler
	// (spin.Rewrite): the origin applies it at strip time, so one
	// revolution delivers the fully combined value back to the
	// initiator's bank.
	rewritten bool
	// Trace attribution (zero when tracing is off or the write is not
	// message-attributed): msg is the BBP message id stamped from the
	// injecting NIC's context, parent the causal parent span, span the
	// packet's own inject→strip span.
	msg    uint64
	parent trace.SpanID
	span   trace.SpanID

	// State of the hop in progress. next is the station the packet is
	// leaving until forward routes it, then the station it reaches;
	// isolated and aged are forward's drop and strip decisions for that
	// arrival; verdict, hspan and ran are what the arrival station's
	// in-network handlers decided (NIC.transit).
	next     int
	isolated bool
	aged     bool
	verdict  spin.Verdict
	hspan    trace.SpanID
	ran      bool
	// depart, arrive, proceed and cross are the packet's hop steps,
	// bound once per packet object so that a hop schedules them without
	// allocating; data keeps its buffer across reuse.
	depart, arrive, proceed, cross func()
}

// Network is a SCRAMNet ring.
type Network struct {
	k      *sim.Kernel
	cfg    Config
	nics   []*NIC
	owner  *ownerTable
	tracer *trace.Recorder
	faults *sim.RNG
	im     netInstruments
	// dropRate is the in-flight corruption probability (SetDropRate).
	dropRate float64

	// cut[i] marks ring segment i — the fiber pair between node i and
	// node (i+1)%Nodes — as severed; cuts is the count of severed
	// segments (the ring status register, see NIC.RingCuts).
	cut  []bool
	cuts int

	// free holds the released packets newPacket reuses; made counts the
	// packet objects ever allocated, every one of which is back on free
	// once the ring is quiescent.
	free []*packet
	made int
}

// netInstruments are the ring-wide metrics (nil = disabled no-ops).
type netInstruments struct {
	hops        *metrics.Counter // ring.hops: link traversals, incl. bypass
	bypassHops  *metrics.Counter // ring.bypass_hops: traversals through optical bypass
	wrapHops    *metrics.Counter // ring.wrap_hops: extra secondary-ring transits crossing a severed segment
	nodeFails   *metrics.Counter // ring.node_fails
	nodeRepairs *metrics.Counter // ring.node_repairs
	linkCuts    *metrics.Counter // ring.link_cuts
	linkSplices *metrics.Counter // ring.link_splices
}

// SetTracer installs an event recorder on the ring and every NIC's host
// bus (nil disables tracing).
func (n *Network) SetTracer(r *trace.Recorder) {
	n.tracer = r
	for _, nic := range n.nics {
		nic.bus.SetTracer(r, nic.ownerID)
	}
}

// SetMetrics reports the ring, its NICs and their host buses into m:
// each NIC's Stats is bound under its host number, and the counts with
// no Stats twin get registry-owned instruments (nil uninstalls those).
// Metrics never charge virtual time, so enabling them cannot perturb a
// measurement.
func (n *Network) SetMetrics(m *metrics.Registry) {
	n.im = netInstruments{
		hops:        m.Counter("ring.hops", metrics.NodeGlobal),
		bypassHops:  m.Counter("ring.bypass_hops", metrics.NodeGlobal),
		wrapHops:    m.Counter("ring.wrap_hops", metrics.NodeGlobal),
		nodeFails:   m.Counter("ring.node_fails", metrics.NodeGlobal),
		nodeRepairs: m.Counter("ring.node_repairs", metrics.NodeGlobal),
		linkCuts:    m.Counter("ring.link_cuts", metrics.NodeGlobal),
		linkSplices: m.Counter("ring.link_splices", metrics.NodeGlobal),
	}
	for _, nic := range n.nics {
		nic.setMetrics(m)
	}
}

// New builds a ring of cfg.Nodes NICs on kernel k.
func New(k *sim.Kernel, cfg Config) (*Network, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if cfg.HandlerCycleCost == 0 {
		cfg.HandlerCycleCost = DefaultHandlerCycleCost
	}
	if cfg.HandlerBudget == 0 {
		cfg.HandlerBudget = DefaultHandlerBudget
	}
	n := &Network{
		k:      k,
		cfg:    cfg,
		owner:  newOwnerTable(cfg.SingleWriterCheck, cfg.MemBytes),
		faults: sim.NewRNG(cfg.Seed + 1),
		cut:    make([]bool, cfg.Nodes),
	}
	for i := 0; i < cfg.Nodes; i++ {
		nic := &NIC{
			net:     n,
			id:      i,
			ownerID: i,
			mem:     newBank(cfg.MemBytes),
			bus:     pci.New(k, cfg.Bus),
			link:    sim.NewServer(k),
			txDrain: sim.NewCond(k),
			intrOn:  false,
		}
		n.nics = append(n.nics, nic)
	}
	return n, nil
}

// Kernel returns the simulation kernel the ring runs on.
func (n *Network) Kernel() *sim.Kernel { return n.k }

// Config returns the ring configuration.
func (n *Network) Config() Config { return n.cfg }

// Nodes returns the ring size.
func (n *Network) Nodes() int { return n.cfg.Nodes }

// NIC returns node i's interface card.
func (n *Network) NIC(i int) *NIC { return n.nics[i] }

// BrokenRingError reports that a packet leaving node From found no
// route to another live station: a severed segment on a single ring, a
// dead node breaking a single ring, or (with DualRing) every node
// bypassed. The forwarding path drops the packet and closes its span
// with "ring-broken".
type BrokenRingError struct {
	From int  // node the packet could not progress past
	Cut  bool // a severed segment (vs. a dead node / fully bypassed ring)
}

func (e *BrokenRingError) Error() string {
	if e.Cut {
		return fmt.Sprintf("scramnet: ring broken at node %d: severed segment with no secondary path", e.From)
	}
	return fmt.Sprintf("scramnet: ring broken at node %d: no live station reachable", e.From)
}

// route computes the next station for a packet leaving node from: the
// next non-bypassed node on the primary ring, crossing severed segments
// via the counter-rotating secondary ring when DualRing permits. The
// wrap is FDDI-style: the node upstream of a cut turns traffic back
// onto the secondary, which carries it (applying nothing) until the
// node just downstream of the nearest severed segment — found counter-
// rotating — wraps it onto the primary again. With a single cut that
// re-entry node is the cut's own far side, a full counter-revolution
// away; with two cuts it is the start of the sender's arc, so each arc
// closes into its own sub-ring and intra-arc delivery is preserved.
//
// hops counts logical primary advances (these age the packet exactly as
// on an intact ring), wrap the extra secondary transits a wrap adds
// (latency only), byp the optical-bypass transits through failed nodes.
// err is a *BrokenRingError when no station past from is reachable —
// including the previously unbounded case of every node bypassed on a
// DualRing, which used to spin forever in the routing walk.
func (n *Network) route(from int) (next, hops, wrap, byp int, err error) {
	nn := n.cfg.Nodes
	cur := from
	for hops < nn {
		if n.cut[cur] {
			if !n.cfg.DualRing {
				return 0, 0, 0, 0, &BrokenRingError{From: cur, Cut: true}
			}
			w := cur
			dist := 0
			for dist < nn {
				prev := (w - 1 + nn) % nn
				if n.cut[prev] {
					break // prev→w is severed: w wraps secondary → primary
				}
				w = prev
				dist++
			}
			hops++
			if dist > 0 {
				wrap += dist - 1
			}
			cur = w
			if dist == 0 {
				// Both segments adjacent to cur are severed: a single-
				// node arc wraps straight back to the station itself.
				return cur, hops, wrap, byp, nil
			}
		} else {
			hops++
			cur = (cur + 1) % nn
		}
		if !n.nics[cur].failed {
			return cur, hops, wrap, byp, nil
		}
		if !n.cfg.DualRing {
			return 0, 0, 0, 0, &BrokenRingError{From: cur}
		}
		byp++
	}
	// A full revolution of advances found no live station: every node
	// is bypassed and the packet has nowhere to land.
	return 0, 0, 0, 0, &BrokenRingError{From: from}
}

// wireTime returns the serialization time of pkt on one link.
func (n *Network) wireTime(pkt *packet) sim.Duration {
	if n.cfg.Mode == FixedPackets {
		return n.cfg.FixedPacketWire
	}
	return n.cfg.VarHeaderWire + sim.Duration(len(pkt.data))*n.cfg.VarPerByteWire
}

// maxPayload returns the packet payload limit for the current mode.
func (n *Network) maxPayload() int {
	if n.cfg.Mode == FixedPackets {
		return 4
	}
	return MaxVarPayload
}

// checkOwner enforces the single-writer discipline when enabled.
func (n *Network) checkOwner(node, off, size int) {
	n.owner.check(node, off, size)
}

// assignOwner hands the words in [off, off+size) to node (see
// ownerTable.assign).
func (n *Network) assignOwner(node, off, size int) {
	n.owner.assign(node, off, size)
}

// MemBytes returns the replicated bank size.
func (n *Network) MemBytes() int { return n.cfg.MemBytes }

// newPacket returns a packet of this ring carrying a copy of data,
// reusing a released one when there is one.
func (n *Network) newPacket(origin, off int, data []byte, interrupt bool, msg uint64, parent trace.SpanID) *packet {
	var pkt *packet
	if last := len(n.free) - 1; last >= 0 {
		pkt = n.free[last]
		n.free = n.free[:last]
	} else {
		pkt = &packet{}
		pkt.depart, pkt.arrive, pkt.proceed, pkt.cross = pkt.departHop, pkt.arriveHop, pkt.proceedHop, pkt.crossHop
		n.made++
	}
	*pkt = packet{
		net: n, origin: origin, off: off, data: append(pkt.data[:0], data...),
		interrupt: interrupt, msg: msg, parent: parent,
		depart: pkt.depart, arrive: pkt.arrive, proceed: pkt.proceed, cross: pkt.cross,
	}
	return pkt
}

// release returns pkt to the free list at the end of its trip.
func (n *Network) release(pkt *packet) {
	if pkt.net == nil {
		panic("scramnet: packet released twice")
	}
	pkt.net = nil
	n.free = append(n.free, pkt)
}

// inject starts pkt from its origin: serialize on the origin's outgoing
// link, then hop to the first downstream node.
func (n *Network) inject(pkt *packet) {
	src := n.nics[pkt.origin]
	src.stats.PacketsSent++
	src.stats.BytesSent += int64(len(pkt.data))
	// "inject" opens the packet's ring span; it closes at strip, CRC
	// drop, or ring break ("pkt-end"), so the causal tree shows exactly
	// how far each replication packet got.
	pkt.span = n.tracer.BeginSpan(n.k.Now(), trace.Ring, pkt.origin, "inject", pkt.msg, pkt.parent, "off=%#x len=%d", trace.Int(pkt.off), trace.Int(len(pkt.data)))
	pkt.next = pkt.origin
	src.link.Serve(n.wireTime(pkt), pkt.depart)
}

// departHop runs when pkt has serialized onto the outgoing link of
// station pkt.next. Leaving its origin (no hops yet), the packet first
// drains the transmit FIFO and meets the origin's bypass and the
// in-flight corruption draw.
func (pkt *packet) departHop() {
	n := pkt.net
	if pkt.hops == 0 {
		src := n.nics[pkt.origin]
		src.txBacklog -= len(pkt.data)
		src.txDrain.Broadcast()
		if src.failed {
			// The origin was optically bypassed: its transmitter drives
			// the bypass loop, not the ring, so the packet reaches no
			// other node. The local bank already holds the write; only
			// replication is lost.
			src.stats.PacketsLost++
			n.tracer.EndSpan(n.k.Now(), trace.Ring, pkt.origin, "pkt-end", pkt.span, pkt.msg, "bypassed")
			n.release(pkt)
			return
		}
		if n.dropRate > 0 && n.faults.Float64() < n.dropRate {
			// Corrupted in flight: the next hop's CRC check discards it.
			src.stats.PacketsLost++
			n.tracer.EndSpan(n.k.Now(), trace.Ring, pkt.origin, "pkt-end", pkt.span, pkt.msg, "crc-drop")
			n.release(pkt)
			return
		}
	}
	n.forward(pkt.next, pkt)
}

// forward moves pkt from node `from` to the next live node, applying the
// write there and continuing until the packet returns to its origin.
func (n *Network) forward(from int, pkt *packet) {
	next, hops, wrap, byp, err := n.route(from)
	if err != nil {
		n.nics[pkt.origin].stats.PacketsLost++
		n.tracer.EndSpan(n.k.Now(), trace.Ring, pkt.origin, "pkt-end", pkt.span, pkt.msg, "ring-broken")
		n.release(pkt)
		return // broken ring: packet lost downstream
	}
	pkt.hops += hops
	n.im.hops.Add(int64(hops))
	if byp > 0 {
		n.im.bypassHops.Add(int64(byp))
	}
	if wrap > 0 {
		n.im.wrapHops.Add(int64(wrap))
	}
	pkt.next = next
	pkt.aged = pkt.hops >= n.cfg.Nodes
	// A single-node arc wraps the packet straight back to the station
	// it just left; unless that station is the origin (normal strip),
	// the origin sits across a cut and can never strip it — drop it.
	pkt.isolated = next == from && next != pkt.origin
	n.k.AfterKind(sim.Duration(hops+wrap)*n.cfg.HopDelay, sim.KindRing, pkt.arrive)
}

// arriveHop runs when pkt reaches station pkt.next: it is dropped,
// stripped, or handed to the station's in-network handlers, whose cycle
// cost occupies the transit point before the packet proceeds.
func (pkt *packet) arriveHop() {
	n := pkt.net
	next := pkt.next
	if pkt.isolated {
		n.nics[pkt.origin].stats.PacketsLost++
		n.tracer.EndSpan(n.k.Now(), trace.Ring, pkt.origin, "pkt-end", pkt.span, pkt.msg, "isolated node=%d", trace.Int(next))
		n.release(pkt)
		return
	}
	if next == pkt.origin || pkt.aged {
		// Stripped by the source after a full revolution — or aged
		// out after as many hops, which is what removes a packet
		// whose origin was optically bypassed while it circulated.
		// A handler-rewritten packet is applied to the origin's own
		// bank first: the strip is how the initiator of a streaming
		// reduction observes the fully combined value.
		if pkt.rewritten && next == pkt.origin {
			n.nics[next].stripApply(pkt)
		}
		n.tracer.EndSpan(n.k.Now(), trace.Ring, pkt.origin, "pkt-end", pkt.span, pkt.msg, "strip hops=%d", trace.Int(pkt.hops))
		n.release(pkt)
		return
	}
	// In-network handlers run before the local apply and the forward
	// decision; their cycle cost occupies the transit point for real
	// virtual time before the packet progresses.
	var cost sim.Duration
	pkt.verdict, cost, pkt.hspan, pkt.ran = n.nics[next].transit(pkt)
	if cost > 0 {
		n.k.AfterKind(cost, sim.KindRing, pkt.proceed)
	} else {
		pkt.proceedHop()
	}
}

// proceedHop finishes pkt's transit of station pkt.next: apply the
// write there unless a handler steered it, then serialize onto the
// station's outgoing link unless a handler consumed it.
func (pkt *packet) proceedHop() {
	n := pkt.net
	nic := n.nics[pkt.next]
	if pkt.ran {
		n.tracer.EndSpan(n.k.Now(), trace.Spin, nic.id, "handler-end", pkt.hspan, pkt.msg, "verdict=%s", trace.Str(pkt.verdict.String()))
	}
	if pkt.verdict != spin.Steer {
		nic.apply(pkt)
	}
	if pkt.verdict == spin.Consume {
		n.tracer.EndSpan(n.k.Now(), trace.Ring, pkt.origin, "pkt-end", pkt.span, pkt.msg, "consumed node=%d hops=%d", trace.Int(nic.id), trace.Int(pkt.hops))
		n.release(pkt)
		return
	}
	// Transit: the packet occupies this node's outgoing link too.
	nic.link.Serve(n.wireTime(pkt), pkt.depart)
}

// FailNode marks node i failed. With DualRing the node is optically
// bypassed and the rest of the ring keeps replicating; with a single
// ring, packets are lost when they reach the break.
func (n *Network) FailNode(i int) {
	n.nics[i].failed = true
	n.im.nodeFails.Inc()
}

// RepairNode returns a failed node to service. Its bank may be stale
// until peers rewrite their words.
func (n *Network) RepairNode(i int) {
	n.nics[i].failed = false
	n.im.nodeRepairs.Inc()
}

// CutLink severs ring segment i — the fiber pair between node i and
// node (i+1)%Nodes, taking out both the primary and the co-routed
// secondary direction, as one cable cut does. With DualRing a single
// cut heals transparently: traffic wraps onto the secondary ring at the
// two nodes adjacent to the cut (counted in ring.wrap_hops) with
// byte-identical delivery and bounded added latency; a second cut
// segments the ring into two isolated arcs. Cutting a segment that is
// already severed is a no-op.
func (n *Network) CutLink(i int) {
	if n.cut[i] {
		return
	}
	n.cut[i] = true
	n.cuts++
	n.im.linkCuts.Inc()
}

// SpliceLink repairs segment i, undoing CutLink. Splicing an intact
// segment is a no-op.
func (n *Network) SpliceLink(i int) {
	if !n.cut[i] {
		return
	}
	n.cut[i] = false
	n.cuts--
	n.im.linkSplices.Inc()
}

// LinkCut reports whether segment i is currently severed.
func (n *Network) LinkCut(i int) bool { return n.cut[i] }

// SetDropRate injects hardware faults: r is the probability that an
// injected packet is corrupted in flight and discarded by the CRC check
// at its first hop (zero, the default, injects none). SCRAMNet hardware
// detects but does not retransmit; the BillBoard Protocol inherits that
// assumption, so under injected faults receives time out rather than
// deliver corrupt data. The draws come from the generator seeded by
// Config.Seed, so a run is deterministic; fault-injection scripts call
// SetDropRate to open and close transient loss windows. Rates outside
// [0,1] are clamped — a drop probability can be nothing else, and a
// scripted sweep that overshoots must saturate, not corrupt the
// comparison against the RNG (NaN clamps to 0).
func (n *Network) SetDropRate(r float64) {
	if !(r >= 0) {
		r = 0
	} else if r > 1 {
		r = 1
	}
	n.dropRate = r
}

// Quiescent reports whether no packets are in flight anywhere (all link
// servers idle). Useful for replication tests.
func (n *Network) Quiescent() bool {
	now := n.k.Now()
	for _, nic := range n.nics {
		if nic.link.BusyUntil() > now {
			return false
		}
	}
	return true
}

// Stats aggregates per-NIC counters; NIC.setMetrics binds each field to
// its ring.* counter.
type Stats struct {
	PacketsSent     int64
	PacketsApplied  int64
	PacketsLost     int64
	BytesSent       int64
	InterruptsTaken int64
	// PacketsCombined counts ring packets this card's in-network
	// handlers rewrote in place at its transit point — the NIC-side
	// gather/combine work of a spin.Reducer round (DESIGN.md §15). It
	// is the per-hop evidence that a collective's state accumulated in
	// the card, not in a rank-side poll tree.
	PacketsCombined int64
}

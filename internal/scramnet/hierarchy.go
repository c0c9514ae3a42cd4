package scramnet

import (
	"fmt"

	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/trace"
)

// Hierarchy is a two-level ring-of-rings, the paper's §2 answer to the
// 256-node ring limit: leaf rings carry the hosts, a backbone ring
// carries one bridge per leaf, and every write is forwarded so that all
// banks in all rings replicate the full address space.
//
// Topology is a tree, so forwarding cannot loop: a bridge re-injects a
// packet into the adjacent ring as a fresh packet originated by its own
// node there, and a ring strips packets at their origin.
//
// Hierarchy implements the same surface the BillBoard Protocol needs
// from a single Network (core.RingNetwork), with hosts numbered
// globally across leaves in leaf order.
type Hierarchy struct {
	k        *sim.Kernel
	backbone *Network
	leaves   []*Network
	// hostRing/hostLocal map a global host id to its leaf and the node
	// number inside it (bridge slots are not hosts).
	hostRing  []int
	hostLocal []int
	owner     *ownerTable
	memBytes  int
}

// HierarchyConfig describes a two-level hierarchy.
type HierarchyConfig struct {
	// LeafHosts gives the number of hosts on each leaf ring (each leaf
	// additionally carries one bridge node).
	LeafHosts []int
	// Ring is the per-ring hardware configuration; its Nodes field is
	// ignored (derived per ring).
	Ring Config
	// BridgeDelay is the store-and-forward latency through a bridge,
	// on top of both rings' normal serialization.
	BridgeDelay sim.Duration
}

// DefaultHierarchyConfig returns two leaf rings of `hostsPerLeaf` hosts
// bridged by a backbone.
func DefaultHierarchyConfig(leaves, hostsPerLeaf int) HierarchyConfig {
	sizes := make([]int, leaves)
	for i := range sizes {
		sizes[i] = hostsPerLeaf
	}
	return HierarchyConfig{
		LeafHosts:   sizes,
		Ring:        DefaultConfig(2), // Nodes overridden per ring
		BridgeDelay: 400 * sim.Nanosecond,
	}
}

// NewHierarchy builds the hierarchy on kernel k.
func NewHierarchy(k *sim.Kernel, cfg HierarchyConfig) (*Hierarchy, error) {
	if len(cfg.LeafHosts) < 2 {
		return nil, fmt.Errorf("scramnet: hierarchy needs at least 2 leaf rings, got %d", len(cfg.LeafHosts))
	}
	h := &Hierarchy{
		k:        k,
		owner:    newOwnerTable(cfg.Ring.SingleWriterCheck, cfg.Ring.MemBytes),
		memBytes: cfg.Ring.MemBytes,
	}
	// Backbone: one node per leaf (its bridge).
	bbCfg := cfg.Ring
	bbCfg.Nodes = len(cfg.LeafHosts)
	bb, err := New(k, bbCfg)
	if err != nil {
		return nil, fmt.Errorf("scramnet: backbone: %w", err)
	}
	bb.owner = h.owner
	h.backbone = bb

	global := 0
	for li, hosts := range cfg.LeafHosts {
		if hosts < 1 {
			return nil, fmt.Errorf("scramnet: leaf %d has %d hosts", li, hosts)
		}
		lcfg := cfg.Ring
		lcfg.Nodes = hosts + 1 // + bridge slot, the last node
		leaf, err := New(k, lcfg)
		if err != nil {
			return nil, fmt.Errorf("scramnet: leaf %d: %w", li, err)
		}
		leaf.owner = h.owner
		h.leaves = append(h.leaves, leaf)
		for n := 0; n < hosts; n++ {
			h.hostRing = append(h.hostRing, li)
			h.hostLocal = append(h.hostLocal, n)
			leaf.NIC(n).ownerID = global
			global++
		}
		// The bridge node never host-writes; give it an id outside the
		// host range so the shared owner table stays unambiguous.
		leaf.NIC(hosts).ownerID = -(li + 1)
		h.wireBridge(li, hosts, cfg.BridgeDelay)
	}
	return h, nil
}

// wireBridge connects leaf li's bridge slot (its last node) to backbone
// node li, forwarding applied writes in both directions.
func (h *Hierarchy) wireBridge(li, bridgeLocal int, delay sim.Duration) {
	leafNIC := h.leaves[li].NIC(bridgeLocal)
	bbNIC := h.backbone.NIC(li)
	// Leaf traffic (originated by leaf hosts) reaches the bridge slot
	// and crosses onto the backbone.
	leafNIC.onApply = func(pkt *packet) { h.bridge(pkt, bbNIC, delay) }
	// Backbone traffic (other leaves' forwarded writes) crosses down
	// into this leaf.
	bbNIC.onApply = func(pkt *packet) { h.bridge(pkt, leafNIC, delay) }
}

// bridge copies pkt, just applied at one side of a bridge, into a
// packet of the ring of to, the other side's NIC, and re-posts it
// there after the bridge's store-and-forward delay (packet.crossHop).
// The copy carries pkt's message and its span as the causal parent.
func (h *Hierarchy) bridge(pkt *packet, to *NIC, delay sim.Duration) {
	fwd := to.net.newPacket(to.id, pkt.off, pkt.data, pkt.interrupt, pkt.msg, pkt.span)
	h.k.AfterKind(delay, sim.KindRing, fwd.cross)
}

// Kernel returns the simulation kernel.
func (h *Hierarchy) Kernel() *sim.Kernel { return h.k }

// Nodes returns the global host count (bridges excluded).
func (h *Hierarchy) Nodes() int { return len(h.hostRing) }

// MemBytes returns the replicated bank size.
func (h *Hierarchy) MemBytes() int { return h.memBytes }

// NIC returns global host i's interface card.
func (h *Hierarchy) NIC(i int) *NIC {
	return h.leaves[h.hostRing[i]].NIC(h.hostLocal[i])
}

// Leaf returns leaf ring li (for tests and instrumentation).
func (h *Hierarchy) Leaf(li int) *Network { return h.leaves[li] }

// Backbone returns the backbone ring.
func (h *Hierarchy) Backbone() *Network { return h.backbone }

// SetMetrics installs metrics on every ring of the hierarchy (nil
// disables). NICs are keyed by their global host number; bridge slots
// report under the bridge NIC's ownerID.
func (h *Hierarchy) SetMetrics(m *metrics.Registry) {
	h.backbone.SetMetrics(m)
	for _, leaf := range h.leaves {
		leaf.SetMetrics(m)
	}
}

// SetTracer installs a trace recorder on every ring of the hierarchy
// (nil disables). Packet spans carry their message attribution across
// bridges, so a causal tree can follow a write leaf→backbone→leaf.
func (h *Hierarchy) SetTracer(r *trace.Recorder) {
	h.backbone.SetTracer(r)
	for _, leaf := range h.leaves {
		leaf.SetTracer(r)
	}
}

// Quiescent reports whether no packets are in flight on any ring.
func (h *Hierarchy) Quiescent() bool {
	if !h.backbone.Quiescent() {
		return false
	}
	for _, l := range h.leaves {
		if !l.Quiescent() {
			return false
		}
	}
	return true
}

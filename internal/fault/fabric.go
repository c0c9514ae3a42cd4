package fault

import (
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/xport"
)

// Fabric wraps any xport.Fabric with fault injection — the switched-
// fabric equivalent of the SCRAMNet ring's CRC drops and optical
// bypass. It implements both xport.Fabric (so protocol stacks run over
// it unchanged) and Target (so scripts drive it).
//
// Loss is decided per frame from a deterministic generator seeded at
// construction; a failed node neither sources nor sinks frames (its
// link is down), and the down check is made both at transmit time and
// again at delivery time so a node failing while a frame is in flight
// still loses it.
type Fabric struct {
	k     *sim.Kernel
	inner xport.Fabric
	rng   *sim.RNG
	loss  float64
	down  []bool

	stats FabricStats
}

// SetMetrics binds the wrapper's FabricStats to m, cluster-wide
// (NodeGlobal — frames cross nodes, so per-node attribution would be
// arbitrary). Nil binds nothing.
func (f *Fabric) SetMetrics(m *metrics.Registry) {
	m.Bind("fault.frames_dropped_loss", metrics.NodeGlobal, &f.stats.DroppedLoss)
	m.Bind("fault.frames_dropped_down", metrics.NodeGlobal, &f.stats.DroppedDown)
	m.Bind("fault.frames_forwarded", metrics.NodeGlobal, &f.stats.Forwarded)
}

// FabricStats counts the wrapper's interventions; SetMetrics binds each
// field to its fault.frames_* counter.
type FabricStats struct {
	// DroppedLoss counts frames dropped by a transient loss window.
	DroppedLoss int64
	// DroppedDown counts frames dropped because an endpoint was failed.
	DroppedDown int64
	// Forwarded counts frames passed through intact.
	Forwarded int64
}

// NewFabric wraps inner with fault injection, seeding the per-frame
// drop generator with seed.
func NewFabric(k *sim.Kernel, inner xport.Fabric, seed uint64) *Fabric {
	return &Fabric{
		k:     k,
		inner: inner,
		rng:   sim.NewRNG(seed + 1),
		down:  make([]bool, inner.Nodes()),
	}
}

// Nodes returns the host count of the wrapped fabric.
func (f *Fabric) Nodes() int { return f.inner.Nodes() }

// MTU returns the wrapped fabric's frame payload limit.
func (f *Fabric) MTU() int { return f.inner.MTU() }

// Stats returns a copy of the intervention counters.
func (f *Fabric) Stats() FabricStats { return f.stats }

// FailNode takes node i's link down.
func (f *Fabric) FailNode(i int) { f.down[i] = true }

// RepairNode restores node i's link.
func (f *Fabric) RepairNode(i int) { f.down[i] = false }

// SetLossRate sets the per-frame drop probability.
func (f *Fabric) SetLossRate(r float64) { f.loss = r }

// Transmit forwards the frame unless a fault claims it.
func (f *Fabric) Transmit(src, dst int, frame []byte) {
	if f.down[src] || f.down[dst] {
		f.stats.DroppedDown++
		return
	}
	if f.loss > 0 && f.rng.Float64() < f.loss {
		f.stats.DroppedLoss++
		return
	}
	f.inner.Transmit(src, dst, frame)
}

// SetHandler installs node's delivery callback, re-checking the node's
// health at arrival time.
func (f *Fabric) SetHandler(node int, fn func(src int, frame []byte)) {
	f.inner.SetHandler(node, func(src int, frame []byte) {
		if f.down[node] || f.down[src] {
			f.stats.DroppedDown++
			return
		}
		f.stats.Forwarded++
		fn(src, frame)
	})
}

var (
	_ xport.Fabric = (*Fabric)(nil)
	_ Target       = (*Fabric)(nil)
)

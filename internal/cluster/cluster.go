// Package cluster assembles the paper's testbed: four dual-Pentium-II
// workstations wired, in turn, to SCRAMNet, Fast Ethernet, ATM, and
// Myrinet. It builds the chosen fabric, attaches the matching messaging
// substrate to every node, and exposes uniform xport.Endpoint handles —
// so benchmarks and MPI worlds are constructed identically regardless of
// the network under test.
package cluster

import (
	"fmt"

	"repro/internal/atm"
	"repro/internal/core"
	"repro/internal/ethernet"
	"repro/internal/fault"
	"repro/internal/hybrid"
	"repro/internal/liveness"
	"repro/internal/metrics"
	"repro/internal/mpi"
	"repro/internal/myrinet"
	"repro/internal/scramnet"
	"repro/internal/sim"
	"repro/internal/tcpip"
	"repro/internal/trace"
	"repro/internal/xport"
)

// Network names a testbed interconnect.
type Network string

// The five network configurations of Figures 2 and 3, plus the hybrid
// subsystem the paper's conclusion proposes.
const (
	SCRAMNet     Network = "scramnet"     // BillBoard Protocol on the replicated ring
	FastEthernet Network = "fastethernet" // TCP-lite on 100 Mb/s switched Ethernet
	ATM          Network = "atm"          // TCP-lite on OC-3 ATM
	MyrinetAPI   Network = "myrinet-api"  // vendor user-level API
	MyrinetTCP   Network = "myrinet-tcp"  // TCP-lite over the Myrinet driver
	// Hybrid routes small messages over the BillBoard Protocol and
	// large ones over the Myrinet API — the §7 "SCRAMNet together with
	// a high bandwidth network within the same cluster" proposal.
	Hybrid Network = "hybrid"
)

// Networks lists the paper's five measured configurations, in figure
// order; AllNetworks additionally includes the hybrid extension.
var (
	Networks    = []Network{SCRAMNet, FastEthernet, ATM, MyrinetAPI, MyrinetTCP}
	AllNetworks = []Network{SCRAMNet, FastEthernet, ATM, MyrinetAPI, MyrinetTCP, Hybrid}
)

// Options configures a testbed build.
type Options struct {
	Nodes int
	Net   Network
	// BBP optionally overrides the BillBoard Protocol configuration
	// (SCRAMNet only).
	BBP *core.Config
	// Ring optionally overrides the SCRAMNet hardware configuration.
	Ring *scramnet.Config
	// Hierarchy, when set, builds a bridged ring-of-rings instead of a
	// flat ring (SCRAMNet only); Nodes must equal the total host count.
	Hierarchy *scramnet.HierarchyConfig
	// PIOOnlyBBP forces the BBP endpoints onto the programmed-I/O path,
	// as the paper's minimal MPICH channel device does.
	PIOOnlyBBP bool
	// Liveness, when non-nil, enables heartbeat-based failure detection
	// on the BBP substrate (SCRAMNet, and the SCRAMNet side of Hybrid —
	// where the router and any MPI world above inherit the membership
	// view through liveness.Provider). It overrides any Liveness setting
	// in Options.BBP.
	Liveness *liveness.Config
	// Faults optionally schedules a fault script against the built
	// network. On SCRAMNet the script drives the ring's optical bypass
	// and CRC-drop model directly (the ring's drop stream is re-seeded
	// from the script); the switched fabrics are wrapped with a
	// fault-injecting layer. A Hybrid cluster faults both substrates
	// with the same script. Not supported on hierarchical SCRAMNet.
	// New rejects a script that names a node or segment outside
	// [0, Nodes) or that fails Script.Validate.
	Faults *fault.Script
	// Metrics, when non-nil, instruments every built layer (ring/
	// hierarchy, host buses, BBP endpoints, fault wrappers, hybrid
	// routers) against the given registry. Metrics never charge virtual
	// time, so an instrumented cluster reproduces exactly the latencies
	// of an uninstrumented one.
	Metrics *metrics.Registry
	// Trace, when non-nil, installs causal span tracing on every built
	// layer that supports it (ring/hierarchy, host buses, BBP system,
	// hybrid routers, fault scripts). Like Metrics it charges no
	// virtual time.
	Trace *trace.Recorder
	// SnapshotEvery, when positive and Metrics is set, starts a
	// periodic snapshot stream capturing the full registry every
	// interval of virtual time (Cluster.Stream).
	SnapshotEvery sim.Duration
	// Profiler, when non-nil, is installed on the kernel so the run's
	// real-time cost is attributed per event kind (sim.Profiler). Like
	// Metrics and Trace it charges no virtual time.
	Profiler *sim.Profiler
}

// Cluster is a built testbed.
type Cluster struct {
	K         *sim.Kernel
	Net       Network
	Endpoints []xport.Endpoint
	// Ring and BBP are set for flat-ring SCRAMNet clusters; Hier for
	// hierarchical ones.
	Ring *scramnet.Network
	Hier *scramnet.Hierarchy
	BBP  *core.System
	// Fault is the fault-injection wrapper around a switched fabric,
	// set when Options.Faults was given on a non-SCRAMNet network (and
	// for the Myrinet side of a Hybrid cluster).
	Fault *fault.Fabric
	// Stream is the periodic metrics snapshot stream, set when both
	// Options.Metrics and Options.SnapshotEvery were given.
	Stream *metrics.Stream
}

// lan is a switched network: the xport.Switch profile of its fabric
// and the endpoint each node opens on that fabric.
type lan struct {
	profile func(nodes int) xport.SwitchConfig
	open    func(k *sim.Kernel, fab xport.Fabric, node int) xport.Endpoint
}

// lans lists the switched networks of Figures 2 and 3.
var lans = map[Network]lan{
	FastEthernet: {ethernet.DefaultConfig, overTCP(tcpip.FastEthernetProfile)},
	ATM:          {atm.DefaultConfig, overTCP(tcpip.ATMProfile)},
	MyrinetAPI: {myrinet.DefaultConfig, func(_ *sim.Kernel, fab xport.Fabric, node int) xport.Endpoint {
		return myrinet.OpenAPI(fab, node, myrinet.DefaultAPIConfig())
	}},
	MyrinetTCP: {myrinet.DefaultConfig, overTCP(tcpip.MyrinetProfile)},
}

// overTCP opens a TCP-lite stack with the given profile.
func overTCP(profile func() tcpip.Config) func(*sim.Kernel, xport.Fabric, int) xport.Endpoint {
	return func(k *sim.Kernel, fab xport.Fabric, node int) xport.Endpoint {
		return tcpip.NewStack(k, fab, node, profile())
	}
}

// switched builds l's fabric, wraps it with fault injection and
// schedules the script on it when one was requested (setting c.Fault),
// and opens one endpoint per node on it.
func switched(k *sim.Kernel, c *Cluster, opts Options, l lan) ([]xport.Endpoint, error) {
	sw, err := xport.NewSwitch(k, l.profile(opts.Nodes))
	if err != nil {
		return nil, err
	}
	var fab xport.Fabric = sw
	if opts.Faults != nil {
		ff := fault.NewFabric(k, sw, opts.Faults.Seed)
		ff.SetMetrics(opts.Metrics)
		opts.Faults.Apply(k, ff, opts.Metrics, opts.Trace)
		c.Fault = ff
		fab = ff
	}
	eps := make([]xport.Endpoint, opts.Nodes)
	for i := range eps {
		eps[i] = l.open(k, fab, i)
	}
	return eps, nil
}

// New builds a testbed per opts.
func New(k *sim.Kernel, opts Options) (*Cluster, error) {
	if opts.Nodes < 2 {
		return nil, fmt.Errorf("cluster: need at least 2 nodes, got %d", opts.Nodes)
	}
	if err := checkFaults(opts.Faults, opts.Nodes); err != nil {
		return nil, err
	}
	c := &Cluster{K: k, Net: opts.Net}
	if opts.Profiler != nil {
		k.SetProfiler(opts.Profiler)
	}
	switch opts.Net {
	case SCRAMNet:
		var topo core.RingNetwork
		if opts.Hierarchy != nil {
			if opts.Faults != nil {
				return nil, fmt.Errorf("cluster: fault scripts are not supported on hierarchical SCRAMNet")
			}
			hcfg := *opts.Hierarchy
			hcfg.Ring.SingleWriterCheck = true
			h, err := scramnet.NewHierarchy(k, hcfg)
			if err != nil {
				return nil, err
			}
			if h.Nodes() != opts.Nodes {
				return nil, fmt.Errorf("cluster: hierarchy has %d hosts, want %d", h.Nodes(), opts.Nodes)
			}
			if opts.Metrics != nil {
				h.SetMetrics(opts.Metrics)
			}
			if opts.Trace != nil {
				h.SetTracer(opts.Trace)
			}
			c.Hier = h
			topo = h
		} else {
			ringCfg := scramnet.DefaultConfig(opts.Nodes)
			if opts.Ring != nil {
				ringCfg = *opts.Ring
			}
			if opts.Faults != nil {
				// The script's seed also parameterizes the ring's own
				// CRC-drop stream, so a replayed script reproduces the
				// exact same packet losses.
				ringCfg.Seed = opts.Faults.Seed
			}
			ringCfg.SingleWriterCheck = true
			ring, err := scramnet.New(k, ringCfg)
			if err != nil {
				return nil, err
			}
			if opts.Metrics != nil {
				ring.SetMetrics(opts.Metrics)
			}
			if opts.Trace != nil {
				ring.SetTracer(opts.Trace)
			}
			if opts.Faults != nil {
				opts.Faults.Apply(k, fault.Ring(ring), opts.Metrics, opts.Trace)
			}
			c.Ring = ring
			topo = ring
		}
		bbpCfg := core.DefaultConfig()
		if opts.BBP != nil {
			bbpCfg = *opts.BBP
		}
		if opts.PIOOnlyBBP {
			bbpCfg.Thresholds.SendDMA = 1 << 30
			bbpCfg.Thresholds.RecvDMA = 1 << 30
			bbpCfg.Thresholds.Adaptive = false
		}
		if opts.Liveness != nil {
			bbpCfg.Liveness = *opts.Liveness
		}
		var bbpOpts []core.Option
		if opts.Metrics != nil {
			bbpOpts = append(bbpOpts, core.WithMetrics(opts.Metrics))
		}
		if opts.Trace != nil {
			bbpOpts = append(bbpOpts, core.WithTracer(opts.Trace))
		}
		sys, err := core.New(topo, bbpCfg, bbpOpts...)
		if err != nil {
			return nil, err
		}
		for i := 0; i < opts.Nodes; i++ {
			ep, err := sys.Attach(i)
			if err != nil {
				return nil, err
			}
			c.Endpoints = append(c.Endpoints, ep)
		}
		c.BBP = sys
	case Hybrid:
		// Both NICs in every workstation: a SCRAMNet ring for latency
		// and a Myrinet SAN for bandwidth. A fault script hits both.
		low, err := New(k, Options{Nodes: opts.Nodes, Net: SCRAMNet, BBP: opts.BBP, Ring: opts.Ring, Faults: opts.Faults, Metrics: opts.Metrics, Trace: opts.Trace, Liveness: opts.Liveness})
		if err != nil {
			return nil, err
		}
		c.Ring, c.BBP = low.Ring, low.BBP
		high, err := switched(k, c, opts, lans[MyrinetAPI])
		if err != nil {
			return nil, err
		}
		for i, h := range high {
			ep, err := hybrid.New(low.Endpoints[i], h, hybrid.DefaultConfig())
			if err != nil {
				return nil, err
			}
			ep.SetMetrics(opts.Metrics)
			ep.SetTracer(opts.Trace)
			c.Endpoints = append(c.Endpoints, ep)
		}
	default:
		l, ok := lans[opts.Net]
		if !ok {
			return nil, fmt.Errorf("cluster: unknown network %q", opts.Net)
		}
		eps, err := switched(k, c, opts, l)
		if err != nil {
			return nil, err
		}
		c.Endpoints = eps
	}
	if opts.Metrics != nil && opts.SnapshotEvery > 0 {
		c.Stream = metrics.NewStream(k, opts.Metrics, opts.SnapshotEvery)
	}
	return c, nil
}

// checkFaults rejects a script whose fail, repair, cut or splice names a
// node or ring segment outside [0, nodes), then one whose per-target
// ordering is unrealizable (fault.Script.Validate).
func checkFaults(s *fault.Script, nodes int) error {
	if s == nil {
		return nil
	}
	for _, a := range s.Actions {
		switch a.Kind {
		case fault.NodeFail, fault.NodeRepair, fault.LinkCut, fault.LinkSplice:
			if a.Node < 0 || a.Node >= nodes {
				return fmt.Errorf("cluster: fault %s at %d names node %d of %d", a.Kind, a.At, a.Node, nodes)
			}
		}
	}
	return s.Validate()
}

// NewMPIWorld builds a testbed on net and an MPI world over it. On
// SCRAMNet the channel device runs the BBP in PIO-only mode, as in the
// paper's minimal channel implementation. Collectives pick the
// multicast-based implementations per call (mpi.WithAlgorithm).
func NewMPIWorld(k *sim.Kernel, net Network, nodes int) (*Cluster, *mpi.World, error) {
	c, err := New(k, Options{Nodes: nodes, Net: net, PIOOnlyBBP: true})
	if err != nil {
		return nil, nil, err
	}
	return c, mpi.NewWorld(c.Endpoints, mpi.DefaultConfig()), nil
}

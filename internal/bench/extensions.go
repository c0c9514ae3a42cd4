package bench

import (
	"fmt"
	"io"
	"strings"

	"repro/internal/cluster"
	"repro/internal/scramnet"
	"repro/internal/sim"
)

// The measurements in this file go beyond the paper's six figures:
// streaming bandwidth, collective scaling with cluster size, and the
// §2 hierarchy-of-rings extension.

// Throughput measures sustained one-directional application bandwidth
// (MB/s) between two nodes: `count` back-to-back messages of n bytes,
// timed from first send to last receive.
func Throughput(net cluster.Network, n, count int) float64 {
	k := sim.NewKernel()
	defer k.Close()
	c, err := cluster.New(k, cluster.Options{Nodes: 4, Net: net})
	if err != nil {
		panic(err)
	}
	elapsed, err := StreamTime(k, c.Endpoints[0], c.Endpoints[1], n, count)
	if err != nil {
		panic(err)
	}
	sec := float64(elapsed) / 1e9
	return float64(n*count) / sec / 1e6
}

// BarrierScaling returns multicast- and tree-barrier latency for each
// cluster size (an extension: the paper stops at 4 nodes but argues
// scalability).
func BarrierScaling(sizes []int) (mcast, tree Series) {
	mcast = Series{Label: "SCRAMNet w/ API multicast"}
	tree = Series{Label: "SCRAMNet w/ point-to-point"}
	for _, n := range sizes {
		opts := cluster.Options{Nodes: n, Net: cluster.SCRAMNet}
		mcast.X = append(mcast.X, n)
		mcast.Y = append(mcast.Y, MPIBarrier(opts, BarrierNative, Iters).Us)
		tree.X = append(tree.X, n)
		tree.Y = append(tree.Y, MPIBarrier(opts, BarrierP2P, Iters).Us)
	}
	return mcast, tree
}

// BcastScaling returns multicast- and tree-broadcast latency against
// cluster size for an n-byte payload. The multicast curve should stay
// nearly flat — the single-step property of §3.
func BcastScaling(sizes []int, payload int) (mcast, tree Series) {
	mcast = Series{Label: "bbp_Mcast-based"}
	tree = Series{Label: "binomial tree"}
	for _, n := range sizes {
		mcast.X = append(mcast.X, n)
		mcast.Y = append(mcast.Y, MPIBcast(cluster.SCRAMNet, BcastNative, n, payload))
		tree.X = append(tree.X, n)
		tree.Y = append(tree.Y, MPIBcast(cluster.SCRAMNet, BcastP2P, n, payload))
	}
	return mcast, tree
}

// HierarchyPingPong measures BBP one-way latency between the two most
// distant hosts of a hierarchy with the given leaf layout, for an
// n-byte message.
func HierarchyPingPong(leaves, hostsPerLeaf, n int) float64 {
	k := sim.NewKernel()
	defer k.Close()
	hcfg := scramnet.DefaultHierarchyConfig(leaves, hostsPerLeaf)
	c, err := cluster.New(k, cluster.Options{
		Nodes:     leaves * hostsPerLeaf,
		Net:       cluster.SCRAMNet,
		Hierarchy: &hcfg,
	})
	if err != nil {
		panic(err)
	}
	// First host of the first leaf to last host of the last leaf.
	return PingPong(k, c.Endpoints[0], c.Endpoints[leaves*hostsPerLeaf-1], n)
}

// FigBandwidth sweeps streaming throughput across networks (extension
// figure E2).
func FigBandwidth(sizes []int) []Series {
	nets := []struct {
		label string
		net   cluster.Network
	}{
		{"SCRAMNet (BBP)", cluster.SCRAMNet},
		{"Fast Ethernet (TCP)", cluster.FastEthernet},
		{"ATM (TCP)", cluster.ATM},
		{"Myrinet API", cluster.MyrinetAPI},
	}
	var out []Series
	for _, nc := range nets {
		s := Series{Label: nc.label}
		for _, n := range sizes {
			s.X = append(s.X, n)
			s.Y = append(s.Y, Throughput(nc.net, n, 32))
		}
		out = append(out, s)
	}
	return out
}

// MessageRate measures small-message throughput (messages/second):
// rank 0 streams count back-to-back n-byte messages to rank
// opts.Nodes−1, timed from the first post to the last drain. Both the
// sweep matrix and the host-cost benchmarks call it.
func MessageRate(opts cluster.Options, n, count int) float64 {
	k := sim.NewKernel()
	defer k.Close()
	c, err := cluster.New(k, opts)
	if err != nil {
		panic(err)
	}
	elapsed, err := StreamTime(k, c.Endpoints[0], c.Endpoints[opts.Nodes-1], n, count)
	if err != nil {
		panic(fmt.Sprintf("message rate %s/%d: %v", opts.Net, opts.Nodes, err))
	}
	return float64(count) / (float64(elapsed) / 1e9)
}

// Incast measures hotspot contention: every node but node 0 sends one
// n-byte message to node 0 at the same instant, and node 0 drains them
// with RecvAny; returned is the time in µs until the last message is
// consumed. On SCRAMNet the bottleneck is the receiver's I/O bus and
// the shared ring; on Ethernet it is the receiver's downlink and the
// kernel's serialized protocol processing. opts is the caller's
// testbed: E5 passes bare options, E9 its poll mode and registry.
func Incast(opts cluster.Options, n int) float64 {
	k := sim.NewKernel()
	defer k.Close()
	c, err := cluster.New(k, opts)
	if err != nil {
		panic(err)
	}
	eps := c.Endpoints
	var last sim.Time
	for s := 1; s < opts.Nodes; s++ {
		s := s
		k.Spawn(fmt.Sprintf("tx%d", s), func(p *sim.Proc) {
			if err := eps[s].Send(p, 0, make([]byte, n)); err != nil {
				panic(err)
			}
		})
	}
	k.Spawn("sink", func(p *sim.Proc) {
		buf := make([]byte, n+8)
		for i := 1; i < opts.Nodes; i++ {
			if _, _, err := eps[0].RecvAny(p, buf); err != nil {
				panic(err)
			}
		}
		last = p.Now()
	})
	if err := k.Run(); err != nil {
		panic(err)
	}
	return last.Sub(0).Microseconds()
}

// RenderScaling writes a latency-vs-nodes table.
func RenderScaling(w io.Writer, title string, ss []Series) {
	fmt.Fprintf(w, "%s\n%s\n", title, strings.Repeat("-", len(title)))
	fmt.Fprintf(w, "%8s", "nodes")
	for _, s := range ss {
		fmt.Fprintf(w, "  %26s", s.Label)
	}
	fmt.Fprintln(w)
	for i := range ss[0].X {
		fmt.Fprintf(w, "%8d", ss[0].X[i])
		for _, s := range ss {
			fmt.Fprintf(w, "  %23.1fµs", s.Y[i])
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintln(w)
}

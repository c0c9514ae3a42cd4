// Command collective measures MPI broadcast and barrier latency — the
// tool behind Figures 4–6.
//
// Usage:
//
//	collective -op bcast [-net ...] [-impl p2p|mcast] [-nodes 4] [-size 512]
//	collective -op barrier [-net ...] [-impl p2p|mcast] [-nodes 4]
//	collective -op bbp-bcast [-nodes 4] [-size 512]   (raw BillBoard API)
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/bench"
	"repro/internal/cluster"
)

func main() {
	op := flag.String("op", "bcast", "operation: bcast, barrier, or bbp-bcast")
	net := flag.String("net", "scramnet", "network (see cmd/pingpong)")
	impl := flag.String("impl", "mcast", "collective implementation: p2p, mcast, or nic (barrier only)")
	nodes := flag.Int("nodes", 4, "cluster size")
	size := flag.Int("size", 512, "payload bytes (bcast only)")
	flag.Parse()

	nw := cluster.Network(*net)
	if (*impl == "mcast" || *impl == "nic") && nw != cluster.SCRAMNet {
		fmt.Fprintln(os.Stderr, "multicast and NIC-combined collectives require -net scramnet")
		os.Exit(2)
	}
	switch *op {
	case "bcast":
		bi := bench.BcastP2P
		if *impl == "mcast" {
			bi = bench.BcastNative
		}
		us := bench.MPIBcast(nw, bi, *nodes, *size)
		fmt.Printf("MPI_Bcast  %-14s %-5s  %d nodes  %5d B  %9.1fµs\n", nw, *impl, *nodes, *size, us)
	case "barrier":
		bi := bench.BarrierP2P
		switch *impl {
		case "mcast":
			bi = bench.BarrierNative
		case "nic":
			bi = bench.BarrierNIC
		}
		us := bench.MPIBarrier(cluster.Options{Nodes: *nodes, Net: nw}, bi, bench.Iters).Us
		fmt.Printf("MPI_Barrier %-14s %-5s  %d nodes  %9.1fµs\n", nw, *impl, *nodes, us)
	case "bbp-bcast":
		us := bench.BroadcastAPI(*nodes, *size)
		fmt.Printf("bbp_Mcast  %d nodes  %5d B  %9.1fµs (API layer)\n", *nodes, *size, us)
	default:
		fmt.Fprintf(os.Stderr, "unknown op %q\n", *op)
		os.Exit(2)
	}
}

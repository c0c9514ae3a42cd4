// Command collective measures MPI broadcast and barrier latency — the
// tool behind Figures 4–6.
//
// Usage:
//
//	collective -op bcast [-net ...] [-impl p2p|mcast] [-nodes 4] [-size 512]
//	collective -op barrier [-net ...] [-impl p2p|mcast|nic] [-nodes 4]
//	collective -op bbp-bcast [-nodes 4] [-size 512]   (raw BillBoard API)
//
// An unknown -net, or an -impl the operation does not run, exits 2.
package main

import (
	"flag"
	"fmt"
	"os"
	"slices"

	"repro/internal/bench"
	"repro/internal/cluster"
)

func main() {
	op := flag.String("op", "bcast", "operation: bcast, barrier, or bbp-bcast")
	net := flag.String("net", "scramnet", "network: scramnet, fastethernet, atm, myrinet-api, myrinet-tcp or hybrid")
	impl := flag.String("impl", "mcast", "collective implementation: p2p, mcast, or nic (barrier only)")
	nodes := flag.Int("nodes", 4, "cluster size")
	size := flag.Int("size", 512, "payload bytes (bcast only)")
	flag.Parse()

	nw := cluster.Network(*net)
	if !slices.Contains(cluster.AllNetworks, nw) {
		fmt.Fprintf(os.Stderr, "unknown network %q; one of %v\n", *net, cluster.AllNetworks)
		os.Exit(2)
	}
	if (*impl == "mcast" || *impl == "nic") && nw != cluster.SCRAMNet {
		fmt.Fprintln(os.Stderr, "multicast and NIC-combined collectives require -net scramnet")
		os.Exit(2)
	}
	switch *op {
	case "bcast":
		bi, ok := map[string]bench.BcastImpl{"p2p": bench.BcastP2P, "mcast": bench.BcastNative}[*impl]
		if !ok {
			badImpl(*op, *impl, "p2p or mcast")
		}
		us := bench.MPIBcast(nw, bi, *nodes, *size)
		fmt.Printf("MPI_Bcast  %-14s %-5s  %d nodes  %5d B  %9.1fµs\n", nw, *impl, *nodes, *size, us)
	case "barrier":
		bi, ok := map[string]bench.BarrierImpl{"p2p": bench.BarrierP2P, "mcast": bench.BarrierNative, "nic": bench.BarrierNIC}[*impl]
		if !ok {
			badImpl(*op, *impl, "p2p, mcast or nic")
		}
		us := bench.MPIBarrier(cluster.Options{Nodes: *nodes, Net: nw}, bi, bench.Iters).Us
		fmt.Printf("MPI_Barrier %-14s %-5s  %d nodes  %9.1fµs\n", nw, *impl, *nodes, us)
	case "bbp-bcast":
		if *impl != "mcast" {
			badImpl(*op, *impl, "mcast (the BillBoard API's multicast)")
		}
		us := bench.BroadcastAPI(*nodes, *size)
		fmt.Printf("bbp_Mcast  %d nodes  %5d B  %9.1fµs (API layer)\n", *nodes, *size, us)
	default:
		fmt.Fprintf(os.Stderr, "unknown op %q\n", *op)
		os.Exit(2)
	}
}

// badImpl rejects an -impl that op does not run.
func badImpl(op, impl, valid string) {
	fmt.Fprintf(os.Stderr, "unknown -impl %q for -op %s; %s\n", impl, op, valid)
	os.Exit(2)
}

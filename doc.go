// Package repro is a full reproduction, in simulation, of "Low-Latency
// Message Passing on Workstation Clusters using SCRAMNet" (Moorthy et
// al., IPPS 1999).
//
// The paper builds the BillBoard Protocol (BBP) — a user-level,
// zero-copy, lock-free message passing protocol over SCRAMNet's
// replicated non-coherent shared-memory ring — plus an MPICH-derived
// MPI whose broadcast and barrier use the BBP's single-step hardware
// multicast, and evaluates both against Fast Ethernet, ATM and Myrinet
// on a 4-node Pentium II cluster.
//
// Since the 1999 hardware no longer exists, everything runs on a
// deterministic discrete-event simulation (internal/sim) with models of
// the SCRAMNet ring, the PCI bus, and the three baseline fabrics, each
// calibrated against the latency and bandwidth anchors published in the
// paper. See DESIGN.md for the substitution table and EXPERIMENTS.md
// for measured-vs-paper numbers on every figure.
//
// This package is the public facade: build a testbed on any of the five
// network configurations and obtain message endpoints or an MPI world.
//
//	k := repro.NewKernel()
//	tb, _ := repro.NewTestbed(k, repro.SCRAMNet, 4)
//	...
//	w, _ := repro.NewMPI(k, repro.SCRAMNet, 4)
//	w.RunSPMD(k, func(p *sim.Proc, c *mpi.Comm) {
//		c.Barrier(p, mpi.WithAlgorithm(mpi.Mcast))
//	})
//	k.Run()
package repro

import (
	"repro/internal/cluster"
	"repro/internal/mpi"
	"repro/internal/sim"
)

// Network names one of the five testbed interconnects.
type Network = cluster.Network

// The testbed networks of the paper's Figures 2 and 3, plus the §7
// hybrid (BBP for small messages, Myrinet API for large) extension.
const (
	SCRAMNet     = cluster.SCRAMNet
	FastEthernet = cluster.FastEthernet
	ATM          = cluster.ATM
	MyrinetAPI   = cluster.MyrinetAPI
	MyrinetTCP   = cluster.MyrinetTCP
	Hybrid       = cluster.Hybrid
)

// Testbed is a built cluster: per-node message endpoints over the
// chosen network, plus the SCRAMNet ring and BillBoard system when the
// network is SCRAMNet.
type Testbed = cluster.Cluster

// NewKernel returns a fresh simulation kernel (virtual clock at zero).
func NewKernel() *sim.Kernel { return sim.NewKernel() }

// NewTestbed builds an n-node cluster on the given network with default
// (paper-calibrated) parameters.
func NewTestbed(k *sim.Kernel, net Network, nodes int) (*Testbed, error) {
	return cluster.New(k, cluster.Options{Nodes: nodes, Net: net})
}

// NewMPI builds an n-rank MPI world over the given network. Passing
// mpi.WithAlgorithm(mpi.Mcast) to Bcast or Barrier selects the
// BillBoard multicast fast path (SCRAMNet), as in the paper's modified
// MPICH.
func NewMPI(k *sim.Kernel, net Network, nodes int) (*mpi.World, error) {
	_, w, err := cluster.NewMPIWorld(k, net, nodes)
	return w, err
}

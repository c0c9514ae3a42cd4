// Package bench is the measurement harness behind every figure and
// table of the paper's §5. Each primitive builds a fresh testbed,
// drives a standard micro-benchmark (ping-pong, broadcast, barrier) in
// virtual time, and returns microsecond latencies. Because the
// simulation is deterministic, repeated runs reproduce results exactly.
package bench

import (
	"fmt"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/mpi"
	"repro/internal/scramnet"
	"repro/internal/sim"
	"repro/internal/xport"
)

// clusterRingConfig returns the testbed ring in the requested
// transmission mode.
func clusterRingConfig(variable bool) scramnet.Config {
	cfg := scramnet.DefaultConfig(4)
	if variable {
		cfg.Mode = scramnet.VariablePackets
	}
	return cfg
}

// Iters is how many measured round trips each latency point averages
// over (after one warmup).
const Iters = 8

// OneWayAPI measures one-way latency at the messaging-API layer (the
// BillBoard API on SCRAMNet, sockets or the native API elsewhere) for an
// n-byte message between two nodes of a 4-node testbed, via ping-pong.
func OneWayAPI(net cluster.Network, n int) float64 {
	k := sim.NewKernel()
	defer k.Close()
	c, err := cluster.New(k, cluster.Options{Nodes: 4, Net: net})
	if err != nil {
		panic(err)
	}
	return PingPong(k, c.Endpoints[0], c.Endpoints[1], n)
}

// PingPong runs warmup+Iters round trips between a and b and returns
// the average one-way latency in microseconds. It is exported so the
// perf-regression report (internal/bench/report) can drive it against
// custom-configured, metrics-instrumented testbeds.
func PingPong(k *sim.Kernel, a, b xport.Endpoint, n int) float64 {
	var total sim.Duration
	buf0 := make([]byte, n+1)
	buf1 := make([]byte, n+1)
	msg := make([]byte, n)
	k.Spawn("ping", func(p *sim.Proc) {
		for i := 0; i < Iters+1; i++ {
			start := p.Now()
			if err := a.Send(p, b.Rank(), msg); err != nil {
				panic(err)
			}
			if _, err := a.Recv(p, b.Rank(), buf0); err != nil {
				panic(err)
			}
			if i > 0 { // skip warmup
				total += p.Now().Sub(start)
			}
		}
	})
	k.Spawn("pong", func(p *sim.Proc) {
		for i := 0; i < Iters+1; i++ {
			if _, err := b.Recv(p, a.Rank(), buf1); err != nil {
				panic(err)
			}
			if err := b.Send(p, a.Rank(), msg); err != nil {
				panic(err)
			}
		}
	})
	if err := k.Run(); err != nil {
		panic(err)
	}
	return total.Microseconds() / float64(2*Iters)
}

// StreamTime spawns a sender posting count back-to-back n-byte messages
// from tx to rx and a receiver draining them, runs k, and returns the
// time from the first post to the last drain. A failed send or receive
// surfaces as the error k.Run reports.
func StreamTime(k *sim.Kernel, tx, rx xport.Endpoint, n, count int) (sim.Duration, error) {
	var start, done sim.Time
	msg := make([]byte, n)
	k.Spawn("tx", func(p *sim.Proc) {
		start = p.Now()
		for i := 0; i < count; i++ {
			if err := tx.Send(p, rx.Rank(), msg); err != nil {
				panic(fmt.Sprintf("send: %v", err))
			}
		}
	})
	k.Spawn("rx", func(p *sim.Proc) {
		buf := make([]byte, n+1)
		for i := 0; i < count; i++ {
			if _, err := rx.Recv(p, tx.Rank(), buf); err != nil {
				panic(fmt.Sprintf("recv: %v", err))
			}
		}
		done = p.Now()
	})
	if err := k.Run(); err != nil {
		return 0, err
	}
	return done.Sub(start), nil
}

// OneWayMPI measures MPI-level one-way latency for an n-byte message on
// a 4-node testbed.
func OneWayMPI(net cluster.Network, n int) float64 {
	k := sim.NewKernel()
	defer k.Close()
	_, w, err := cluster.NewMPIWorld(k, net, 4)
	if err != nil {
		panic(err)
	}
	var total sim.Duration
	w.RunSPMD(k, func(p *sim.Proc, c *mpi.Comm) {
		buf := make([]byte, n+1)
		msg := make([]byte, n)
		switch c.Rank() {
		case 0:
			for i := 0; i < Iters+1; i++ {
				start := p.Now()
				if err := c.Send(p, 1, 0, msg); err != nil {
					panic(err)
				}
				if _, err := c.Recv(p, 1, 0, buf); err != nil {
					panic(err)
				}
				if i > 0 {
					total += p.Now().Sub(start)
				}
			}
		case 1:
			for i := 0; i < Iters+1; i++ {
				if _, err := c.Recv(p, 0, 0, buf); err != nil {
					panic(err)
				}
				if err := c.Send(p, 0, 0, msg); err != nil {
					panic(err)
				}
			}
		}
	})
	if err := k.Run(); err != nil {
		panic(err)
	}
	return total.Microseconds() / float64(2*Iters)
}

// BroadcastAPI measures the BillBoard API broadcast latency on a
// SCRAMNet testbed of the given size: from the root's bbp_Mcast call to
// the LAST receiver completing bbp_Recv, averaged over Iters rounds
// (receivers acknowledge between rounds, which is also what keeps the
// sender's garbage collector fed).
func BroadcastAPI(nodes, n int) float64 {
	k := sim.NewKernel()
	defer k.Close()
	c, err := cluster.New(k, cluster.Options{Nodes: nodes, Net: cluster.SCRAMNet})
	if err != nil {
		panic(err)
	}
	eps := c.Endpoints
	var total sim.Duration
	msg := make([]byte, n)
	lastDone := make([]sim.Time, Iters+1)
	arrived := make([]int, Iters+1)
	roundStart := make([]sim.Time, Iters+1)
	done := sim.NewCond(k)
	k.Spawn("root", func(p *sim.Proc) {
		for i := 0; i <= Iters; i++ {
			roundStart[i] = p.Now()
			if err := eps[0].Mcast(p, others(nodes, 0), msg); err != nil {
				panic(err)
			}
			for arrived[i] < nodes-1 {
				done.Wait(p)
			}
			if i > 0 {
				total += lastDone[i].Sub(roundStart[i])
			}
		}
	})
	for r := 1; r < nodes; r++ {
		r := r
		k.Spawn(fmt.Sprintf("rx%d", r), func(p *sim.Proc) {
			buf := make([]byte, n+1)
			for i := 0; i <= Iters; i++ {
				if _, err := eps[r].Recv(p, 0, buf); err != nil {
					panic(err)
				}
				if p.Now() > lastDone[i] {
					lastDone[i] = p.Now()
				}
				arrived[i]++
				done.Broadcast()
			}
		})
	}
	if err := k.Run(); err != nil {
		panic(err)
	}
	return total.Microseconds() / float64(Iters)
}

func others(nodes, not int) []int {
	var out []int
	for i := 0; i < nodes; i++ {
		if i != not {
			out = append(out, i)
		}
	}
	return out
}

// BcastImpl names an MPI_Bcast implementation of Figure 5.
type BcastImpl int

const (
	// BcastP2P is stock MPICH's binomial tree over point-to-point.
	BcastP2P BcastImpl = iota
	// BcastNative uses the BBP API multicast (SCRAMNet only).
	BcastNative
)

// MPIBcast measures MPI_Bcast latency — root call start to last rank's
// return — on `nodes` ranks with an n-byte payload.
func MPIBcast(net cluster.Network, impl BcastImpl, nodes, n int) float64 {
	k := sim.NewKernel()
	defer k.Close()
	_, w, err := cluster.NewMPIWorld(k, net, nodes)
	if err != nil {
		panic(err)
	}
	var total sim.Duration
	lastDone := make([]sim.Time, Iters+1)
	start := make([]sim.Time, Iters+1)
	w.RunSPMD(k, func(p *sim.Proc, c *mpi.Comm) {
		buf := make([]byte, n)
		for i := 0; i <= Iters; i++ {
			if c.Rank() == 0 {
				start[i] = p.Now()
			}
			algo := mpi.Tree
			if impl == BcastNative {
				algo = mpi.Mcast
			}
			if err := c.Bcast(p, 0, buf, mpi.WithAlgorithm(algo)); err != nil {
				panic(err)
			}
			if p.Now() > lastDone[i] {
				lastDone[i] = p.Now()
			}
			// Re-synchronize so every round starts together.
			if err := c.Barrier(p, mpi.WithAlgorithm(mpi.Tree)); err != nil {
				panic(err)
			}
		}
	})
	if err := k.Run(); err != nil {
		panic(err)
	}
	for i := 1; i <= Iters; i++ {
		total += lastDone[i].Sub(start[i])
	}
	return total.Microseconds() / float64(Iters)
}

// BarrierImpl names an MPI_Barrier implementation of Figure 6.
type BarrierImpl int

const (
	// BarrierP2P is the stock point-to-point algorithm.
	BarrierP2P BarrierImpl = iota
	// BarrierNative is the coordinator + bbp_Mcast release (SCRAMNet).
	BarrierNative
	// BarrierNIC is the NIC-combined 1-lane BAND round over the
	// in-network handler engine (SCRAMNet only, DESIGN.md §15).
	BarrierNIC
)

// BarrierRun is one MPIBarrier measurement.
type BarrierRun struct {
	// Us is the mean latency of the measured rounds, each from the last
	// rank's entry to the last rank's exit.
	Us float64
	// Start is the last entry into the first measured round and End the
	// last exit from the final one.
	Start, End sim.Time
}

// MPIBarrier measures barrier latency: one warm-up barrier, then
// rounds measured ones, every rank re-entering the instant it exits.
// impl picks the algorithm and the substrate it runs on: the paper's
// PIO-only BBP for the point-to-point and multicast barriers, the
// stream-enabled BBP for the NIC-combined one, whose every barrier on
// every rank must take the NIC path. That choice overrides opts.BBP
// and opts.PIOOnlyBBP; the rest of opts (Nodes, Net and the
// instrumentation) is the caller's.
func MPIBarrier(opts cluster.Options, impl BarrierImpl, rounds int) BarrierRun {
	k := sim.NewKernel()
	defer k.Close()
	algo := mpi.Tree
	opts.BBP, opts.PIOOnlyBBP = nil, true
	switch impl {
	case BarrierNative:
		algo = mpi.Mcast
	case BarrierNIC:
		algo = mpi.NICCombined
		bbp := core.DefaultConfig()
		bbp.Stream.Enabled = true
		opts.BBP, opts.PIOOnlyBBP = &bbp, false
	}
	c, err := cluster.New(k, opts)
	if err != nil {
		panic(err)
	}
	w := mpi.NewWorld(c.Endpoints, mpi.DefaultConfig())
	lastDone := make([]sim.Time, rounds+1)
	start := make([]sim.Time, rounds+1)
	w.RunSPMD(k, func(p *sim.Proc, c *mpi.Comm) {
		for i := 0; i <= rounds; i++ {
			if p.Now() > start[i] {
				start[i] = p.Now() // all ranks enter at (nearly) the same time
			}
			if err := c.Barrier(p, mpi.WithAlgorithm(algo)); err != nil {
				panic(err)
			}
			if p.Now() > lastDone[i] {
				lastDone[i] = p.Now()
			}
		}
	})
	if err := k.Run(); err != nil {
		panic(err)
	}
	if impl == BarrierNIC {
		for i := 0; i < opts.Nodes; i++ {
			if got := w.Engine(i).Stats().NICBarriers; got != int64(rounds+1) {
				panic(fmt.Sprintf("NIC barrier: rank %d completed %d of %d barriers on the NIC path", i, got, rounds+1))
			}
		}
	}
	var total sim.Duration
	for i := 1; i <= rounds; i++ {
		total += lastDone[i].Sub(start[i])
	}
	return BarrierRun{
		Us:    total.Microseconds() / float64(rounds),
		Start: start[1],
		End:   lastDone[rounds],
	}
}

// RingThroughput measures sustained SCRAMNet throughput (MB/s) for a
// bulk write in the given transmission mode — the §2 table: 6.5 MB/s
// fixed, 16.7 MB/s variable.
func RingThroughput(variable bool) float64 {
	k := sim.NewKernel()
	defer k.Close()
	cfg := clusterRingConfig(variable)
	c, err := cluster.New(k, cluster.Options{Nodes: 4, Net: cluster.SCRAMNet, Ring: &cfg})
	if err != nil {
		panic(err)
	}
	const size = 1 << 16
	var elapsed sim.Duration
	k.Spawn("writer", func(p *sim.Proc) {
		start := p.Now()
		c.Ring.NIC(0).WriteDMA(p, 1<<20, make([]byte, size))
		elapsed = p.Now().Sub(start)
	})
	if err := k.Run(); err != nil {
		panic(err)
	}
	return float64(size) / (float64(elapsed) / 1e9) / 1e6
}

package repro_test

// One benchmark per table/figure of the paper's evaluation (§5), plus
// ablation benches for the design choices DESIGN.md calls out. Each
// bench runs the deterministic simulation and reports the figure's
// metric as virtual microseconds (vus/op) or MB/s alongside Go's wall
//-clock numbers; the virtual metrics are the reproduction results.

import (
	"fmt"
	"testing"

	"repro/internal/bench"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/ethernet"
	"repro/internal/hybrid"
	"repro/internal/mpi"
	"repro/internal/myrinet"
	"repro/internal/scramnet"
	"repro/internal/sim"
	"repro/internal/tcpip"
	"repro/internal/xport"
)

// reportUS attaches a virtual-latency metric to the bench.
func reportUS(b *testing.B, us float64) {
	b.ReportMetric(us, "vus/op")
}

// --- §2 raw-hardware table -------------------------------------------

func BenchmarkRaw_FixedModeThroughput(b *testing.B) {
	var mbps float64
	for i := 0; i < b.N; i++ {
		mbps = bench.RingThroughput(false)
	}
	b.ReportMetric(mbps, "MB/s")
}

func BenchmarkRaw_VariableModeThroughput(b *testing.B) {
	var mbps float64
	for i := 0; i < b.N; i++ {
		mbps = bench.RingThroughput(true)
	}
	b.ReportMetric(mbps, "MB/s")
}

// --- Figure 1: BBP API vs MPI one-way latency on SCRAMNet ------------

func benchOneWayAPI(b *testing.B, net cluster.Network, n int) {
	var us float64
	for i := 0; i < b.N; i++ {
		us = bench.OneWayAPI(net, n)
	}
	reportUS(b, us)
}

func benchOneWayMPI(b *testing.B, net cluster.Network, n int) {
	var us float64
	for i := 0; i < b.N; i++ {
		us = bench.OneWayMPI(net, n)
	}
	reportUS(b, us)
}

func BenchmarkFig1_API_0B(b *testing.B)    { benchOneWayAPI(b, cluster.SCRAMNet, 0) }
func BenchmarkFig1_API_4B(b *testing.B)    { benchOneWayAPI(b, cluster.SCRAMNet, 4) }
func BenchmarkFig1_API_64B(b *testing.B)   { benchOneWayAPI(b, cluster.SCRAMNet, 64) }
func BenchmarkFig1_API_1000B(b *testing.B) { benchOneWayAPI(b, cluster.SCRAMNet, 1000) }
func BenchmarkFig1_MPI_0B(b *testing.B)    { benchOneWayMPI(b, cluster.SCRAMNet, 0) }
func BenchmarkFig1_MPI_4B(b *testing.B)    { benchOneWayMPI(b, cluster.SCRAMNet, 4) }
func BenchmarkFig1_MPI_64B(b *testing.B)   { benchOneWayMPI(b, cluster.SCRAMNet, 64) }
func BenchmarkFig1_MPI_1000B(b *testing.B) { benchOneWayMPI(b, cluster.SCRAMNet, 1000) }

// --- Figure 2: API-layer latency across networks ---------------------

func BenchmarkFig2_SCRAMNet_256B(b *testing.B)     { benchOneWayAPI(b, cluster.SCRAMNet, 256) }
func BenchmarkFig2_FastEthernet_256B(b *testing.B) { benchOneWayAPI(b, cluster.FastEthernet, 256) }
func BenchmarkFig2_ATM_256B(b *testing.B)          { benchOneWayAPI(b, cluster.ATM, 256) }
func BenchmarkFig2_MyrinetAPI_256B(b *testing.B)   { benchOneWayAPI(b, cluster.MyrinetAPI, 256) }
func BenchmarkFig2_MyrinetTCP_256B(b *testing.B)   { benchOneWayAPI(b, cluster.MyrinetTCP, 256) }

// --- Figure 3: MPI-layer latency across networks ---------------------

func BenchmarkFig3_SCRAMNet_256B(b *testing.B)     { benchOneWayMPI(b, cluster.SCRAMNet, 256) }
func BenchmarkFig3_FastEthernet_256B(b *testing.B) { benchOneWayMPI(b, cluster.FastEthernet, 256) }
func BenchmarkFig3_ATM_256B(b *testing.B)          { benchOneWayMPI(b, cluster.ATM, 256) }

// --- Figure 4: point-to-point vs 4-node broadcast (BBP API) ----------

func BenchmarkFig4_PointToPoint_4B(b *testing.B) {
	var us float64
	for i := 0; i < b.N; i++ {
		us = bench.OneWayAPI(cluster.SCRAMNet, 4)
	}
	reportUS(b, us)
}

func BenchmarkFig4_Broadcast4_4B(b *testing.B) {
	var us float64
	for i := 0; i < b.N; i++ {
		us = bench.BroadcastAPI(4, 4)
	}
	reportUS(b, us)
}

func BenchmarkFig4_Broadcast4_1000B(b *testing.B) {
	var us float64
	for i := 0; i < b.N; i++ {
		us = bench.BroadcastAPI(4, 1000)
	}
	reportUS(b, us)
}

// --- Figure 5: MPI_Bcast implementations ------------------------------

func benchBcast(b *testing.B, net cluster.Network, impl bench.BcastImpl, n int) {
	var us float64
	for i := 0; i < b.N; i++ {
		us = bench.MPIBcast(net, impl, 4, n)
	}
	reportUS(b, us)
}

func BenchmarkFig5_FE_P2P_512B(b *testing.B) {
	benchBcast(b, cluster.FastEthernet, bench.BcastP2P, 512)
}
func BenchmarkFig5_SCR_P2P_512B(b *testing.B) {
	benchBcast(b, cluster.SCRAMNet, bench.BcastP2P, 512)
}
func BenchmarkFig5_SCR_Mcast_512B(b *testing.B) {
	benchBcast(b, cluster.SCRAMNet, bench.BcastNative, 512)
}

// --- Figure 6: MPI_Barrier implementations ----------------------------

func benchBarrier(b *testing.B, net cluster.Network, impl bench.BarrierImpl, nodes int) {
	var us float64
	for i := 0; i < b.N; i++ {
		us = bench.MPIBarrier(cluster.Options{Nodes: nodes, Net: net}, impl, bench.Iters).Us
	}
	reportUS(b, us)
}

func BenchmarkFig6_SCR_Mcast_3(b *testing.B) {
	benchBarrier(b, cluster.SCRAMNet, bench.BarrierNative, 3)
}
func BenchmarkFig6_SCR_Mcast_4(b *testing.B) {
	benchBarrier(b, cluster.SCRAMNet, bench.BarrierNative, 4)
}
func BenchmarkFig6_SCR_P2P_3(b *testing.B) { benchBarrier(b, cluster.SCRAMNet, bench.BarrierP2P, 3) }
func BenchmarkFig6_SCR_P2P_4(b *testing.B) { benchBarrier(b, cluster.SCRAMNet, bench.BarrierP2P, 4) }
func BenchmarkFig6_FE_3(b *testing.B)      { benchBarrier(b, cluster.FastEthernet, bench.BarrierP2P, 3) }
func BenchmarkFig6_ATM_3(b *testing.B)     { benchBarrier(b, cluster.ATM, bench.BarrierP2P, 3) }

// --- Ablations (DESIGN.md §4) -----------------------------------------

// Extension: the §7 hybrid subsystem — small messages at SCRAMNet
// latency, large messages at Myrinet bandwidth.
func BenchmarkExt_Hybrid_4B(b *testing.B)  { benchOneWayAPI(b, cluster.Hybrid, 4) }
func BenchmarkExt_Hybrid_8KB(b *testing.B) { benchOneWayAPI(b, cluster.Hybrid, 8192) }
func BenchmarkExt_Hierarchy_4B(b *testing.B) {
	var us float64
	for i := 0; i < b.N; i++ {
		us = bench.HierarchyPingPong(2, 2, 4)
	}
	reportUS(b, us)
}

func BenchmarkExt_Bandwidth_SCRAMNet(b *testing.B) {
	var mbps float64
	for i := 0; i < b.N; i++ {
		mbps = bench.Throughput(cluster.SCRAMNet, 16384, 16)
	}
	b.ReportMetric(mbps, "MB/s")
}

func BenchmarkExt_Bandwidth_MyrinetAPI(b *testing.B) {
	var mbps float64
	for i := 0; i < b.N; i++ {
		mbps = bench.Throughput(cluster.MyrinetAPI, 16384, 16)
	}
	b.ReportMetric(mbps, "MB/s")
}

func BenchmarkExt_MessageRate_SCRAMNet_8B(b *testing.B) {
	var rate float64
	for i := 0; i < b.N; i++ {
		rate = bench.MessageRate(cluster.Options{Nodes: 2, Net: cluster.SCRAMNet}, 8, 200)
	}
	b.ReportMetric(rate, "msgs/s")
}

func BenchmarkExt_MessageRate_FE_8B(b *testing.B) {
	var rate float64
	for i := 0; i < b.N; i++ {
		rate = bench.MessageRate(cluster.Options{Nodes: 2, Net: cluster.FastEthernet}, 8, 200)
	}
	b.ReportMetric(rate, "msgs/s")
}

// Ablation: barrier algorithm choice on an 8-node SCRAMNet cluster —
// coordinator+mcast vs binomial tree.
func BenchmarkAblation_BarrierAlgorithms8(b *testing.B) {
	measure := func(algo mpi.Algorithm) float64 {
		k := sim.NewKernel()
		_, w, err := cluster.NewMPIWorld(k, cluster.SCRAMNet, 8)
		if err != nil {
			b.Fatal(err)
		}
		var last sim.Time
		w.RunSPMD(k, func(p *sim.Proc, c *mpi.Comm) {
			if err := c.Barrier(p, mpi.WithAlgorithm(algo)); err != nil {
				b.Error(err)
				return
			}
			if p.Now() > last {
				last = p.Now()
			}
		})
		if err := k.Run(); err != nil {
			b.Fatal(err)
		}
		return last.Sub(0).Microseconds()
	}
	var mcast, tree float64
	for i := 0; i < b.N; i++ {
		mcast = measure(mpi.Mcast)
		tree = measure(mpi.Tree)
	}
	b.ReportMetric(mcast, "mcast-vus")
	b.ReportMetric(tree, "tree-vus")
}

func BenchmarkExt_BarrierScaling16(b *testing.B) {
	var us float64
	for i := 0; i < b.N; i++ {
		us = bench.MPIBarrier(cluster.Options{Nodes: 16, Net: cluster.SCRAMNet}, bench.BarrierNative, bench.Iters).Us
	}
	reportUS(b, us)
}

// Ablation: interrupt-driven receive (the paper's §7 future work) vs
// polling, 4-byte BBP message.
func BenchmarkAblation_InterruptVsPolling(b *testing.B) {
	measure := func(interrupts bool) float64 {
		k := sim.NewKernel()
		defer k.Close()
		bbpCfg := core.DefaultConfig()
		bbpCfg.InterruptDriven = interrupts
		c, err := cluster.New(k, cluster.Options{Nodes: 4, Net: cluster.SCRAMNet, BBP: &bbpCfg})
		if err != nil {
			b.Fatal(err)
		}
		var recvd, sent sim.Time
		k.Spawn("rx", func(p *sim.Proc) {
			buf := make([]byte, 8)
			if _, err := c.Endpoints[1].Recv(p, 0, buf); err != nil {
				panic(err)
			}
			recvd = p.Now()
		})
		k.Spawn("tx", func(p *sim.Proc) {
			p.Delay(10 * sim.Microsecond)
			sent = p.Now()
			if err := c.Endpoints[0].Send(p, 1, []byte{1, 2, 3, 4}); err != nil {
				panic(err)
			}
		})
		if err := k.Run(); err != nil {
			b.Fatal(err)
		}
		return recvd.Sub(sent).Microseconds()
	}
	var poll, intr float64
	for i := 0; i < b.N; i++ {
		poll = measure(false)
		intr = measure(true)
	}
	b.ReportMetric(poll, "poll-vus")
	b.ReportMetric(intr, "intr-vus")
}

// Ablation: PIO-only vs DMA-enabled BBP data movement, 1000-byte
// message (the send/recv DMA thresholds of internal/core).
func BenchmarkAblation_PIOVsDMA_1000B(b *testing.B) {
	measure := func(pioOnly bool) float64 {
		k := sim.NewKernel()
		defer k.Close()
		c, err := cluster.New(k, cluster.Options{Nodes: 4, Net: cluster.SCRAMNet, PIOOnlyBBP: pioOnly})
		if err != nil {
			b.Fatal(err)
		}
		var recvd, sent sim.Time
		k.Spawn("rx", func(p *sim.Proc) {
			buf := make([]byte, 1024)
			if _, err := c.Endpoints[1].Recv(p, 0, buf); err != nil {
				panic(err)
			}
			recvd = p.Now()
		})
		k.Spawn("tx", func(p *sim.Proc) {
			p.Delay(10 * sim.Microsecond)
			sent = p.Now()
			if err := c.Endpoints[0].Send(p, 1, make([]byte, 1000)); err != nil {
				panic(err)
			}
		})
		if err := k.Run(); err != nil {
			b.Fatal(err)
		}
		return recvd.Sub(sent).Microseconds()
	}
	var pio, dma float64
	for i := 0; i < b.N; i++ {
		pio = measure(true)
		dma = measure(false)
	}
	b.ReportMetric(pio, "pio-vus")
	b.ReportMetric(dma, "dma-vus")
}

// Ablation: fixed vs variable packet mode for a 1000-byte message.
func BenchmarkAblation_FixedVsVariableMode_1000B(b *testing.B) {
	measure := func(mode scramnet.Mode) float64 {
		k := sim.NewKernel()
		defer k.Close()
		ring := scramnet.DefaultConfig(4)
		ring.Mode = mode
		c, err := cluster.New(k, cluster.Options{Nodes: 4, Net: cluster.SCRAMNet, Ring: &ring})
		if err != nil {
			b.Fatal(err)
		}
		var recvd, sent sim.Time
		k.Spawn("rx", func(p *sim.Proc) {
			buf := make([]byte, 1024)
			if _, err := c.Endpoints[1].Recv(p, 0, buf); err != nil {
				panic(err)
			}
			recvd = p.Now()
		})
		k.Spawn("tx", func(p *sim.Proc) {
			p.Delay(10 * sim.Microsecond)
			sent = p.Now()
			if err := c.Endpoints[0].Send(p, 1, make([]byte, 1000)); err != nil {
				panic(err)
			}
		})
		if err := k.Run(); err != nil {
			b.Fatal(err)
		}
		return recvd.Sub(sent).Microseconds()
	}
	var fixed, variable float64
	for i := 0; i < b.N; i++ {
		fixed = measure(scramnet.FixedPackets)
		variable = measure(scramnet.VariablePackets)
	}
	b.ReportMetric(fixed, "fixed-vus")
	b.ReportMetric(variable, "variable-vus")
}

// Ablation: the Nagle + delayed-ACK request-response stall on Fast
// Ethernet (two small sends, then an echo), vs TCP_NODELAY behavior.
func BenchmarkAblation_NagleDelayedAck(b *testing.B) {
	measure := func(nagle bool, delayed sim.Duration) float64 {
		k := sim.NewKernel()
		defer k.Close()
		fab, err := xport.NewSwitch(k, ethernet.DefaultConfig(2))
		if err != nil {
			b.Fatal(err)
		}
		cfg := tcpip.FastEthernetProfile()
		cfg.Nagle = nagle
		cfg.DelayedAck = delayed
		s0, s1 := tcpip.NewStack(k, fab, 0, cfg), tcpip.NewStack(k, fab, 1, cfg)
		var elapsed sim.Duration
		k.Spawn("client", func(p *sim.Proc) {
			start := p.Now()
			if err := s0.Send(p, 1, []byte("one")); err != nil {
				panic(err)
			}
			if err := s0.Send(p, 1, []byte("two")); err != nil {
				panic(err)
			}
			buf := make([]byte, 16)
			if _, err := s0.Recv(p, 1, buf); err != nil {
				panic(err)
			}
			elapsed = p.Now().Sub(start)
		})
		k.Spawn("server", func(p *sim.Proc) {
			buf := make([]byte, 16)
			for i := 0; i < 2; i++ {
				if _, err := s1.Recv(p, 0, buf); err != nil {
					panic(err)
				}
			}
			if err := s1.Send(p, 0, []byte("ok")); err != nil {
				panic(err)
			}
		})
		if err := k.Run(); err != nil {
			b.Fatal(err)
		}
		return elapsed.Microseconds()
	}
	var nodelay, stalled float64
	for i := 0; i < b.N; i++ {
		nodelay = measure(false, 0)
		stalled = measure(true, 500*sim.Microsecond)
	}
	b.ReportMetric(nodelay, "nodelay-vus")
	b.ReportMetric(stalled, "nagle-vus")
}

// Ablation: eager/rendezvous threshold — a 32 KiB MPI message sent
// eagerly vs via rendezvous.
func BenchmarkAblation_EagerVsRendezvous_32K(b *testing.B) {
	measure := func(eagerMax int) float64 {
		k := sim.NewKernel()
		defer k.Close()
		c, err := cluster.New(k, cluster.Options{Nodes: 2, Net: cluster.FastEthernet})
		if err != nil {
			b.Fatal(err)
		}
		cfg := mpi.DefaultConfig()
		cfg.EagerMax = eagerMax
		cfg.ChunkSize = eagerMax
		w := mpi.NewWorld(c.Endpoints, cfg)
		var recvd, sent sim.Time
		w.RunSPMD(k, func(p *sim.Proc, cm *mpi.Comm) {
			if cm.Rank() == 0 {
				p.Delay(10 * sim.Microsecond)
				sent = p.Now()
				if err := cm.Send(p, 1, 0, make([]byte, 32<<10)); err != nil {
					panic(err)
				}
			} else {
				buf := make([]byte, 32<<10)
				if _, err := cm.Recv(p, 0, 0, buf); err != nil {
					panic(err)
				}
				recvd = p.Now()
			}
		})
		if err := k.Run(); err != nil {
			b.Fatal(err)
		}
		return recvd.Sub(sent).Microseconds()
	}
	var eager, rndv float64
	for i := 0; i < b.N; i++ {
		eager = measure(64 << 10) // 32K < EagerMax: eager
		rndv = measure(16 << 10)  // 32K > EagerMax: rendezvous
	}
	b.ReportMetric(eager, "eager-vus")
	b.ReportMetric(rndv, "rndv-vus")
}

// noSweep, noHybridSweep and noAPISweep are endpoints with only
// xport.Sweeper hidden (the Sweep field shadows the promoted method), so
// MPI's progress loop falls back to xport.LoopSweep over TryRecv.
type noSweep struct {
	*core.Endpoint
	Sweep struct{}
}

type noHybridSweep struct {
	*hybrid.Endpoint
	Sweep struct{}
}

type noAPISweep struct {
	*myrinet.API
	Sweep struct{}
}

// sendRecv has rank 0 send buf to rank 1, which receives it.
func sendRecv(p *sim.Proc, cm *mpi.Comm, buf []byte) error {
	if cm.Rank() == 0 {
		return cm.Send(p, 1, 0, buf)
	}
	_, err := cm.Recv(p, 0, 0, buf)
	return err
}

// Ablation: MPI progress sweeps run by the endpoint's poller
// (xport.Sweeper, "sweeper") vs one TryRecv per peer from the process
// (xport.LoopSweep, "generic"). Each row is one warmed op on one
// network, run by ranks 0..ranks-1 each round:
//
//   - scramnet-allreduce: a 64-byte Allreduce on 8 SCRAMNet ranks
//     (without the stream extension, Auto runs the software tree);
//   - hybrid-rndv: a 32 KiB rendezvous from rank 0 to rank 1 on a
//     4-node cluster.Hybrid, control messages on the ring and the
//     payload on the SAN;
//   - myrinet-rndv: the same rendezvous over the native Myrinet API.
//
// Both variants run the same events, so ns/op is the host cost of the
// process switches the poller saves in MPI's progress sweeps. It is
// only that part: the generic variant hides Sweep alone, and the
// router's blocking Recv and RecvAny run on its poller in both.
func BenchmarkMPIProgress(b *testing.B) {
	for _, row := range []struct {
		name       string
		opts       cluster.Options
		ranks      int
		size, warm int
		round      sim.Duration
		hide       func(xport.Endpoint) xport.Endpoint
		op         func(p *sim.Proc, cm *mpi.Comm, buf []byte) error
	}{
		{"scramnet-allreduce", cluster.Options{Nodes: 8, Net: cluster.SCRAMNet, PIOOnlyBBP: true}, 8, 128, 50, 2 * sim.Millisecond,
			func(ep xport.Endpoint) xport.Endpoint { return noSweep{Endpoint: ep.(*core.Endpoint)} },
			func(p *sim.Proc, cm *mpi.Comm, buf []byte) error {
				return cm.Allreduce(p, mpi.SumU32, buf[:64], buf[64:])
			}},
		{"hybrid-rndv", cluster.Options{Nodes: 4, Net: cluster.Hybrid}, 2, 32 << 10, 20, 5 * sim.Millisecond,
			func(ep xport.Endpoint) xport.Endpoint { return noHybridSweep{Endpoint: ep.(*hybrid.Endpoint)} },
			sendRecv},
		{"myrinet-rndv", cluster.Options{Nodes: 4, Net: cluster.MyrinetAPI}, 2, 32 << 10, 20, 5 * sim.Millisecond,
			func(ep xport.Endpoint) xport.Endpoint { return noAPISweep{API: ep.(*myrinet.API)} },
			sendRecv},
	} {
		for _, hide := range []bool{false, true} {
			name := row.name + "/sweeper"
			if hide {
				name = row.name + "/generic"
			}
			b.Run(name, func(b *testing.B) {
				k := sim.NewKernel()
				defer k.Close()
				c, err := cluster.New(k, row.opts)
				if err != nil {
					b.Fatal(err)
				}
				eps := make([]xport.Endpoint, len(c.Endpoints))
				for i, ep := range c.Endpoints {
					eps[i] = ep
					if hide {
						eps[i] = row.hide(ep)
					}
				}
				w := mpi.NewWorld(eps, mpi.DefaultConfig())
				done := 0
				var resume []func()
				for i := 0; i < row.ranks; i++ {
					cm := w.Comm(i)
					buf := make([]byte, row.size)
					resume = append(resume, k.Spawn(fmt.Sprintf("rank%d", i), func(p *sim.Proc) {
						for {
							p.Park()
							if err := row.op(p, cm, buf); err != nil {
								b.Error(err)
								return
							}
							done++
						}
					}).Resume)
				}
				round := func() {
					for _, r := range resume {
						k.At(k.Now(), r)
					}
					k.RunFor(row.round)
				}
				for i := 0; i < row.warm; i++ {
					round()
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					round()
				}
				b.StopTimer()
				if want := row.ranks * (row.warm + b.N); done != want {
					b.Fatalf("%d rank completions, want %d", done, want)
				}
			})
		}
	}
}

package mpi_test

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/cluster"
	"repro/internal/metrics"
	"repro/internal/mpi"
	"repro/internal/sim"
)

func TestManySmallIsendsDrainInOrder(t *testing.T) {
	// A burst of nonblocking sends larger than the BBP slot count
	// forces sender-side GC inside the MPI stack.
	const count = 60
	run(t, cluster.SCRAMNet, 2, func(p *sim.Proc, c *mpi.Comm) {
		if c.Rank() == 0 {
			var reqs []*mpi.Request
			for i := 0; i < count; i++ {
				r, err := c.Isend(p, 1, 0, []byte{byte(i)})
				if err != nil {
					t.Error(err)
					return
				}
				reqs = append(reqs, r)
			}
			if err := c.Waitall(p, reqs); err != nil {
				t.Error(err)
			}
		} else {
			buf := make([]byte, 4)
			for i := 0; i < count; i++ {
				if _, err := c.Recv(p, 0, 0, buf); err != nil || buf[0] != byte(i) {
					t.Errorf("recv %d: got %d err=%v", i, buf[0], err)
					return
				}
			}
		}
	})
}

func TestWaitTimeoutOnMissingMessage(t *testing.T) {
	k := sim.NewKernel()
	c, err := cluster.New(k, cluster.Options{Nodes: 2, Net: cluster.SCRAMNet, PIOOnlyBBP: true})
	if err != nil {
		t.Fatal(err)
	}
	cfg := mpi.DefaultConfig()
	cfg.WaitTimeout = 2 * sim.Millisecond
	w := mpi.NewWorld(c.Endpoints, cfg)
	var recvErr error
	w.RunSPMD(k, func(p *sim.Proc, cm *mpi.Comm) {
		if cm.Rank() == 1 {
			_, recvErr = cm.Recv(p, 0, 0, make([]byte, 8))
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if recvErr != mpi.ErrTimeout {
		t.Fatalf("recvErr = %v, want ErrTimeout", recvErr)
	}
}

func TestCollectivesOnAllTransports(t *testing.T) {
	// The same collective code must work over every substrate,
	// including the hybrid extension.
	for _, net := range cluster.AllNetworks {
		net := net
		t.Run(string(net), func(t *testing.T) {
			algo := mpi.WithAlgorithm(mpi.Tree)
			if net == cluster.SCRAMNet || net == cluster.Hybrid {
				algo = mpi.WithAlgorithm(mpi.Mcast)
			}
			run(t, net, 4,
				func(p *sim.Proc, c *mpi.Comm) {
					buf := make([]byte, 64)
					if c.Rank() == 2 {
						for i := range buf {
							buf[i] = byte(i ^ 0x5a)
						}
					}
					if err := c.Bcast(p, 2, buf, algo); err != nil {
						t.Error(err)
						return
					}
					for i := range buf {
						if buf[i] != byte(i^0x5a) {
							t.Errorf("rank %d corrupt at %d", c.Rank(), i)
							return
						}
					}
					if err := c.Barrier(p, algo); err != nil {
						t.Error(err)
					}
				})
		})
	}
}

func TestRendezvousBidirectionalExchange(t *testing.T) {
	// Symmetric large-message Sendrecv: both sides in rendezvous at
	// once — the pattern that deadlocks naive blocking protocols. The
	// one-way inputs name a ProcNull partner, so one rank only sends
	// and the other only receives; the null receive must report
	// Status{Source: ProcNull} and leave its buffer untouched.
	const size = 64 << 10
	for _, tc := range []struct {
		name  string
		sends [2]bool // whether rank r sends to its peer
	}{
		{"both", [2]bool{true, true}},
		{"0to1", [2]bool{true, false}},
		{"1to0", [2]bool{false, true}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			run(t, cluster.FastEthernet, 2, func(p *sim.Proc, c *mpi.Comm) {
				me, peer := c.Rank(), 1-c.Rank()
				dst, src := mpi.ProcNull, mpi.ProcNull
				if tc.sends[me] {
					dst = peer
				}
				if tc.sends[peer] {
					src = peer
				}
				out := bytes.Repeat([]byte{byte(me + 1)}, size)
				in := make([]byte, size)
				st, err := c.Sendrecv(p, dst, 0, out, src, 0, in)
				if err != nil {
					t.Errorf("rank %d: %v", me, err)
					return
				}
				if src == mpi.ProcNull {
					if st != (mpi.Status{Source: mpi.ProcNull}) || in[0] != 0 || in[size-1] != 0 {
						t.Errorf("rank %d null receive: %+v, in[0]=%d", me, st, in[0])
					}
					return
				}
				if st.Source != peer || st.Len != size {
					t.Errorf("rank %d: %+v", me, st)
					return
				}
				if in[0] != byte(peer+1) || in[size-1] != byte(peer+1) {
					t.Errorf("rank %d got wrong payload", me)
				}
			})
		})
	}
}

func TestStressAllToAllOnSCRAMNet(t *testing.T) {
	// Sustained all-pairs traffic through the BBP-backed MPI: every
	// rank exchanges with every other rank repeatedly.
	const rounds = 8
	run(t, cluster.SCRAMNet, 4, func(p *sim.Proc, c *mpi.Comm) {
		size := c.Size()
		n := 32
		for r := 0; r < rounds; r++ {
			send := make([]byte, n*size)
			for d := 0; d < size; d++ {
				for j := 0; j < n; j++ {
					send[d*n+j] = byte(c.Rank()*16 + d + r)
				}
			}
			recv := make([]byte, n*size)
			me := c.Rank()
			copy(recv[me*n:(me+1)*n], send[me*n:(me+1)*n])
			// Pairwise exchange: in phase ph, send to rank+ph and
			// receive from rank-ph.
			for ph := 1; ph < size; ph++ {
				dst, src := (me+ph)%size, (me-ph+size)%size
				if _, err := c.Sendrecv(p, dst, 0, send[dst*n:(dst+1)*n], src, 0, recv[src*n:(src+1)*n]); err != nil {
					t.Errorf("round %d phase %d: %v", r, ph, err)
					return
				}
			}
			for s := 0; s < size; s++ {
				if recv[s*n] != byte(s*16+c.Rank()+r) {
					t.Errorf("round %d slot %d: %d", r, s, recv[s*n])
					return
				}
			}
		}
	})
}

func TestLargeWorld(t *testing.T) {
	// 16 ranks on one ring: deeper trees, more polling, longer ring.
	const nodes = 16
	run(t, cluster.SCRAMNet, nodes, func(p *sim.Proc, c *mpi.Comm) {
		// Ring pass: each rank forwards a counter.
		buf := make([]byte, 4)
		if c.Rank() == 0 {
			buf[0] = 1
			if err := c.Send(p, 1, 0, buf); err != nil {
				t.Error(err)
				return
			}
			if _, err := c.Recv(p, nodes-1, 0, buf); err != nil {
				t.Error(err)
				return
			}
			if int(buf[0]) != nodes {
				t.Errorf("counter = %d, want %d", buf[0], nodes)
			}
		} else {
			if _, err := c.Recv(p, c.Rank()-1, 0, buf); err != nil {
				t.Error(err)
				return
			}
			buf[0]++
			if err := c.Send(p, (c.Rank()+1)%nodes, 0, buf); err != nil {
				t.Error(err)
				return
			}
		}
		if err := c.Barrier(p, mpi.WithAlgorithm(mpi.Mcast)); err != nil {
			t.Error(err)
		}
	})
}

func TestManySimultaneousWorlds(t *testing.T) {
	// Independent MPI worlds on independent rings in one simulation:
	// kernels are not global state.
	k := sim.NewKernel()
	for wi := 0; wi < 3; wi++ {
		_, w, err := cluster.NewMPIWorld(k, cluster.SCRAMNet, 2)
		if err != nil {
			t.Fatal(err)
		}
		wi := wi
		w.RunSPMD(k, func(p *sim.Proc, c *mpi.Comm) {
			if c.Rank() == 0 {
				if err := c.Send(p, 1, wi, []byte{byte(wi)}); err != nil {
					t.Error(err)
				}
			} else {
				buf := make([]byte, 4)
				st, err := c.Recv(p, 0, wi, buf)
				if err != nil || st.Tag != wi || buf[0] != byte(wi) {
					t.Errorf("world %d: %+v %v", wi, st, err)
				}
			}
		})
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestEngineStatsAccounting(t *testing.T) {
	w := run(t, cluster.SCRAMNet, 2, func(p *sim.Proc, c *mpi.Comm) {
		if c.Rank() == 0 {
			for i := 0; i < 3; i++ {
				if err := c.Send(p, 1, 0, []byte{byte(i)}); err != nil {
					t.Error(err)
				}
			}
			if err := c.Send(p, 1, 0, make([]byte, 100<<10)); err != nil {
				t.Error(err)
			}
		} else {
			buf := make([]byte, 100<<10)
			for i := 0; i < 4; i++ {
				if _, err := c.Recv(p, 0, 0, buf); err != nil {
					t.Error(err)
				}
			}
		}
	})
	s0, s1 := w.Engine(0).Stats(), w.Engine(1).Stats()
	if s0.EagerSent != 3 || s0.RndvSent != 1 {
		t.Errorf("sender stats: %+v", s0)
	}
	if s1.Received != 4 {
		t.Errorf("receiver stats: %+v", s1)
	}
	// The rendezvous above ran sequentially: the windowed instruments
	// must all be untouched.
	if s0.RndvZeroCopy != 0 || s0.WindowStalls != 0 {
		t.Errorf("sequential run touched windowed stats: %+v", s0)
	}
	_ = fmt.Sprintf("%+v", s0) // stats are printable

	// Windowed run with a metrics registry installed: every EngineStats
	// field must mirror its mpi.* counter identically, and the pipeline
	// depth gauge's high-water mark must respect the configured bound.
	const depth = 1 // deterministic: every chunk after the first waits
	k := sim.NewKernel()
	c2, err := cluster.New(k, cluster.Options{Nodes: 2, Net: cluster.SCRAMNet, PIOOnlyBBP: true})
	if err != nil {
		t.Fatal(err)
	}
	cfg := mpi.DefaultConfig()
	cfg.ChunkSize = 4 << 10
	cfg.RndvZeroCopy = true
	cfg.RndvPipelineDepth = depth
	w2 := mpi.NewWorld(c2.Endpoints, cfg)
	reg := metrics.New()
	w2.SetMetrics(reg)
	w2.RunSPMD(k, func(p *sim.Proc, cm *mpi.Comm) {
		if cm.Rank() == 0 {
			if err := cm.Send(p, 1, 0, make([]byte, 64<<10)); err != nil {
				t.Error(err)
			}
		} else if _, err := cm.Recv(p, 0, 0, make([]byte, 64<<10)); err != nil {
			t.Error(err)
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	for r := 0; r < 2; r++ {
		s := w2.Engine(r).Stats()
		for _, pair := range []struct {
			name string
			stat int64
		}{
			{"mpi.eager_sent", s.EagerSent},
			{"mpi.rndv_sent", s.RndvSent},
			{"mpi.received", s.Received},
			{"mpi.unexpected_msgs", s.UnexpectedMsgs},
			{"mpi.chunks_sent", s.ChunksSent},
			{"mpi.rndv_zero_copy", s.RndvZeroCopy},
			{"mpi.window_stalls", s.WindowStalls},
		} {
			if got := reg.Counter(pair.name, r).Value(); got != pair.stat {
				t.Errorf("rank %d %s = %d, stats say %d", r, pair.name, got, pair.stat)
			}
		}
	}
	ws := w2.Engine(0).Stats()
	if ws.RndvZeroCopy != 1 || ws.ChunksSent != 16 {
		t.Errorf("windowed sender stats: %+v, want 1 zero-copy transfer of 16 chunks", ws)
	}
	if ws.WindowStalls == 0 {
		t.Errorf("depth-1 pipeline over a slow ring never stalled: %+v", ws)
	}
	if hw := reg.Gauge("mpi.pipeline_depth", 0).Max(); hw < 1 || hw > depth {
		t.Errorf("pipeline depth high-water %d outside [1, %d]", hw, depth)
	}
}

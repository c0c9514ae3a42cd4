package mpi_test

import (
	"encoding/binary"
	"errors"
	"testing"

	"repro/internal/cluster"
	"repro/internal/liveness"
	"repro/internal/mpi"
	"repro/internal/sim"
)

func TestBarrierDisseminationSynchronizes(t *testing.T) {
	for _, nodes := range []int{3, 4, 7, 8} {
		nodes := nodes
		k := sim.NewKernel()
		_, w, err := cluster.NewMPIWorld(k, cluster.SCRAMNet, nodes)
		if err != nil {
			t.Fatal(err)
		}
		var lastArrive sim.Time
		exits := make([]sim.Time, nodes)
		w.RunSPMD(k, func(p *sim.Proc, c *mpi.Comm) {
			p.Delay(sim.Duration(c.Rank()*137) * sim.Microsecond)
			if p.Now() > lastArrive {
				lastArrive = p.Now()
			}
			if err := c.Barrier(p, mpi.WithAlgorithm(mpi.Dissemination)); err != nil {
				t.Error(err)
				return
			}
			exits[c.Rank()] = p.Now()
		})
		if err := k.Run(); err != nil {
			t.Fatal(err)
		}
		for r, e := range exits {
			if e < lastArrive {
				t.Errorf("%d nodes: rank %d exited at %d before last arrival %d", nodes, r, e, lastArrive)
			}
		}
	}
}

func sumInt64s(t *testing.T, c *mpi.Comm, p *sim.Proc, algo func(*sim.Proc, mpi.Op, []byte, []byte) error, vals int) []int64 {
	t.Helper()
	send := make([]byte, 8*vals)
	for i := 0; i < vals; i++ {
		binary.LittleEndian.PutUint64(send[8*i:], uint64(int64((c.Rank()+1)*(i+1))))
	}
	recv := make([]byte, 8*vals)
	if err := algo(p, mpi.SumI64, send, recv); err != nil {
		t.Error(err)
		return nil
	}
	out := make([]int64, vals)
	for i := range out {
		out[i] = int64(binary.LittleEndian.Uint64(recv[8*i:]))
	}
	return out
}

func TestAllreduceRDMatchesTreeAllSizes(t *testing.T) {
	// Recursive doubling must agree with reduce+bcast on power-of-two
	// and odd communicator sizes alike.
	for _, nodes := range []int{2, 3, 4, 5, 6, 8} {
		nodes := nodes
		k := sim.NewKernel()
		_, w, err := cluster.NewMPIWorld(k, cluster.SCRAMNet, nodes)
		if err != nil {
			t.Fatal(err)
		}
		w.RunSPMD(k, func(p *sim.Proc, c *mpi.Comm) {
			allreduce := func(algo mpi.Algorithm) func(*sim.Proc, mpi.Op, []byte, []byte) error {
				return func(p *sim.Proc, op mpi.Op, s, r []byte) error {
					return c.Allreduce(p, op, s, r, mpi.WithAlgorithm(algo))
				}
			}
			rd := sumInt64s(t, c, p, allreduce(mpi.Dissemination), 4)
			tree := sumInt64s(t, c, p, allreduce(mpi.Tree), 4)
			if rd == nil || tree == nil {
				return
			}
			// Expected: sum over ranks of (r+1)*(i+1).
			base := int64(0)
			for r := 0; r < nodes; r++ {
				base += int64(r + 1)
			}
			for i := range rd {
				want := base * int64(i+1)
				if rd[i] != want || tree[i] != want {
					t.Errorf("%d nodes elem %d: rd=%d tree=%d want=%d", nodes, i, rd[i], tree[i], want)
					return
				}
			}
		})
		if err := k.Run(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestAllreduceShortRecvBufTruncates: a recvBuf shorter than sendBuf is
// rejected with ErrTruncated on every rank before any message moves,
// whichever algorithm would have run.
func TestAllreduceShortRecvBufTruncates(t *testing.T) {
	const cutAt = 2 * sim.Millisecond
	live := liveness.DefaultConfig()
	mcfg := mpi.DefaultConfig()
	mcfg.WaitTimeout = 100 * sim.Millisecond
	for _, tc := range []struct {
		name  string
		algo  mpi.Algorithm
		world func(t *testing.T) (*sim.Kernel, *mpi.World)
		enter sim.Duration
		ranks []int
	}{
		{"auto", mpi.Auto, stream4, 0, []int{0, 1, 2, 3}},
		{"tree", mpi.Tree, stream4, 0, []int{0, 1, 2, 3}},
		{"dissemination", mpi.Dissemination, stream4, 0, []int{0, 1, 2, 3}},
		{"nic-combined", mpi.NICCombined, stream4, 0, []int{0, 1, 2, 3}},
		{"quorum", mpi.Auto, func(t *testing.T) (*sim.Kernel, *mpi.World) {
			k, _, w := treeCluster(t, 5, &live, doubleCut(cutAt, 80*sim.Millisecond), mcfg)
			return k, w
		}, cutAt + 4*sim.Millisecond, []int{0, 1, 4}},
	} {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			k, w := tc.world(t)
			defer k.Close()
			errs := make([]error, w.Size())
			for _, r := range tc.ranks {
				errs[r] = errors.New("never returned")
			}
			w.RunSPMD(k, func(p *sim.Proc, cm *mpi.Comm) {
				if errs[cm.Rank()] == nil {
					return // not a participant
				}
				p.Delay(tc.enter)
				errs[cm.Rank()] = cm.Allreduce(p, mpi.SumU32, make([]byte, 16), make([]byte, 8), mpi.WithAlgorithm(tc.algo))
			})
			if err := k.Run(); err != nil {
				t.Fatal(err)
			}
			for _, r := range tc.ranks {
				if !errors.Is(errs[r], mpi.ErrTruncated) {
					t.Errorf("rank %d: %v, want ErrTruncated", r, errs[r])
				}
				if st := w.Engine(r).Stats(); st.EagerSent != 0 || st.StreamAllreduces+st.StreamFallbacks != 0 {
					t.Errorf("rank %d moved traffic before rejecting: %+v", r, st)
				}
			}
		})
	}
}

func stream4(t *testing.T) (*sim.Kernel, *mpi.World) {
	k, _, w := streamCluster(t, 4, nil, nil)
	return k, w
}

func TestReduceScatterBlocks(t *testing.T) {
	run(t, cluster.SCRAMNet, 4, func(p *sim.Proc, c *mpi.Comm) {
		n := c.Size()
		send := make([]byte, 8*n)
		for i := 0; i < n; i++ {
			binary.LittleEndian.PutUint64(send[8*i:], uint64(int64(c.Rank()+10*i)))
		}
		recv := make([]byte, 8)
		if err := c.ReduceScatter(p, mpi.SumI64, send, recv); err != nil {
			t.Error(err)
			return
		}
		got := int64(binary.LittleEndian.Uint64(recv))
		// Block r sums (rank + 10*r) over ranks = (0+1+2+3) + 4*10*r.
		want := int64(6 + 40*c.Rank())
		if got != want {
			t.Errorf("rank %d: got %d want %d", c.Rank(), got, want)
		}
	})
}

func TestReduceScatterValidation(t *testing.T) {
	run(t, cluster.SCRAMNet, 4, func(p *sim.Proc, c *mpi.Comm) {
		if c.Rank() != 0 {
			return
		}
		if err := c.ReduceScatter(p, mpi.SumI64, make([]byte, 10), make([]byte, 8)); err == nil {
			t.Error("non-divisible send buffer accepted")
		}
		if err := c.ReduceScatter(p, mpi.SumI64, make([]byte, 32), make([]byte, 4)); err == nil {
			t.Error("undersized receive buffer accepted")
		}
	})
}

func TestDisseminationVsTreeLatency(t *testing.T) {
	// On a root-bottlenecked medium the dissemination barrier's extra
	// parallelism can win for larger node counts; at minimum both must
	// synchronize and stay within a small factor of each other.
	measure := func(algo mpi.Algorithm, nodes int) float64 {
		k := sim.NewKernel()
		_, w, err := cluster.NewMPIWorld(k, cluster.SCRAMNet, nodes)
		if err != nil {
			t.Fatal(err)
		}
		var last sim.Time
		w.RunSPMD(k, func(p *sim.Proc, c *mpi.Comm) {
			if err := c.Barrier(p, mpi.WithAlgorithm(algo)); err != nil {
				t.Error(err)
				return
			}
			if p.Now() > last {
				last = p.Now()
			}
		})
		if err := k.Run(); err != nil {
			t.Fatal(err)
		}
		return last.Sub(0).Microseconds()
	}
	tree, diss := measure(mpi.Tree, 8), measure(mpi.Dissemination, 8)
	if ratio := diss / tree; ratio < 0.3 || ratio > 3.0 {
		t.Errorf("8-node dissemination %.1fµs vs tree %.1fµs: implausible ratio", diss, tree)
	}
}

package mpi_test

import (
	"errors"
	"testing"

	"repro/internal/liveness"
	"repro/internal/mpi"
	"repro/internal/sim"
)

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

// TestBadAlgorithmRejected: an explicit algorithm that does not apply
// to the collective, or is no algorithm at all, returns ErrBadAlgorithm
// on every rank, and the communicator stays usable for the next
// collective.
func TestBadAlgorithmRejected(t *testing.T) {
	bad := mpi.Algorithm(99)
	if got := bad.String(); got != "mpi.Algorithm(99)" {
		t.Errorf("Algorithm(99).String() = %q", got)
	}
	for _, tc := range []struct {
		name string
		call func(p *sim.Proc, c *mpi.Comm) error
	}{
		{"bcast/nic-combined", func(p *sim.Proc, c *mpi.Comm) error {
			return c.Bcast(p, 0, make([]byte, 8), mpi.WithAlgorithm(mpi.NICCombined))
		}},
		{"allreduce/mcast", func(p *sim.Proc, c *mpi.Comm) error {
			return c.Allreduce(p, mpi.SumU32, make([]byte, 8), make([]byte, 8), mpi.WithAlgorithm(mpi.Mcast))
		}},
		{"barrier/99", func(p *sim.Proc, c *mpi.Comm) error {
			return c.Barrier(p, mpi.WithAlgorithm(bad))
		}},
		{"bcast/99", func(p *sim.Proc, c *mpi.Comm) error {
			return c.Bcast(p, 0, make([]byte, 8), mpi.WithAlgorithm(bad))
		}},
		{"allreduce/99", func(p *sim.Proc, c *mpi.Comm) error {
			return c.Allreduce(p, mpi.SumU32, make([]byte, 8), make([]byte, 8), mpi.WithAlgorithm(bad))
		}},
	} {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			k, w := stream4(t)
			defer k.Close()
			errs := make([]error, w.Size())
			after := make([]error, w.Size())
			for r := range after {
				after[r] = errors.New("never returned")
			}
			w.RunSPMD(k, func(p *sim.Proc, c *mpi.Comm) {
				errs[c.Rank()] = tc.call(p, c)
				after[c.Rank()] = c.Barrier(p)
			})
			if err := k.Run(); err != nil {
				t.Fatal(err)
			}
			for r := range errs {
				if !errors.Is(errs[r], mpi.ErrBadAlgorithm) {
					t.Errorf("rank %d: %v, want ErrBadAlgorithm", r, errs[r])
				}
				if after[r] != nil {
					t.Errorf("rank %d: barrier after the rejected call: %v", r, after[r])
				}
			}
		})
	}
}

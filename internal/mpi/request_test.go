package mpi_test

import (
	"bytes"
	"errors"
	"fmt"
	"slices"
	"testing"

	"repro/internal/cluster"
	"repro/internal/fault"
	"repro/internal/mpi"
	"repro/internal/sim"
)

// warmRounds runs a gate's rounds past sequence numbers 255 before
// measuring, as core's allocation gates do.
const warmRounds = 260

// gateRounds parks one process per rank of w that runs body once per
// round, warms the rounds up and returns the allocations of twenty
// measured rounds together, so that even one allocation in twenty
// rounds shows.
func gateRounds(t *testing.T, k *sim.Kernel, w *mpi.World, body func(p *sim.Proc, c *mpi.Comm) error) float64 {
	t.Helper()
	var resume []func()
	for i := 0; i < w.Size(); i++ {
		c := w.Comm(i)
		resume = append(resume, k.Spawn(fmt.Sprintf("rank%d", i), func(p *sim.Proc) {
			for {
				p.Park()
				if err := body(p, c); err != nil {
					t.Errorf("rank %d: %v", c.Rank(), err)
					return
				}
			}
		}).Resume)
	}
	round := func() {
		for _, r := range resume {
			k.At(k.Now(), r)
		}
		k.RunFor(5 * sim.Millisecond)
	}
	for i := 0; i < warmRounds; i++ {
		round()
	}
	return testing.AllocsPerRun(1, func() {
		for i := 0; i < 20; i++ {
			round()
		}
	})
}

// TestEagerSendRecvAllocs gates a warmed eager Send/Recv pair: the
// requests come from the engine's free list and each wait's stop
// predicate from its own, so it allocates nothing, with a wait deadline
// (the default WaitTimeout) or without one.
func TestEagerSendRecvAllocs(t *testing.T) {
	for _, timeout := range []sim.Duration{mpi.DefaultConfig().WaitTimeout, 0} {
		t.Run(fmt.Sprintf("WaitTimeout=%v", timeout), func(t *testing.T) {
			k := sim.NewKernel()
			defer k.Close()
			c, err := cluster.New(k, cluster.Options{Nodes: 2, Net: cluster.SCRAMNet, PIOOnlyBBP: true})
			if err != nil {
				t.Fatal(err)
			}
			cfg := mpi.DefaultConfig()
			cfg.WaitTimeout = timeout
			w := mpi.NewWorld(c.Endpoints, cfg)
			msg, buf := bytes.Repeat([]byte{7}, 64), make([]byte, 64)
			rounds := 0
			allocs := gateRounds(t, k, w, func(p *sim.Proc, c *mpi.Comm) error {
				if c.Rank() == 0 {
					return c.Send(p, 1, 3, msg)
				}
				clear(buf)
				if st, err := c.Recv(p, 0, 3, buf); err != nil || st.Len != len(msg) || !bytes.Equal(buf, msg) {
					return fmt.Errorf("recv: %+v %v", st, err)
				}
				rounds++
				return nil
			})
			if allocs != 0 {
				t.Fatalf("twenty eager Send/Recv pairs allocate %v times, want 0", allocs)
			}
			if want := warmRounds + 40; rounds != want {
				t.Fatalf("received %d messages, want %d", rounds, want)
			}
		})
	}
}

// TestTreeAllreduceAllocs gates a warmed software-tree Allreduce on
// four ranks (no in-network substrate, so Auto runs the tree).
func TestTreeAllreduceAllocs(t *testing.T) {
	const nodes = 4
	k := sim.NewKernel()
	defer k.Close()
	_, w, err := cluster.NewMPIWorld(k, cluster.SCRAMNet, nodes)
	if err != nil {
		t.Fatal(err)
	}
	sends, recvs := make([][]byte, nodes), make([][]byte, nodes)
	for i := range sends {
		sends[i], recvs[i] = make([]byte, 16), make([]byte, 16)
		putU32(sends[i], uint32(i+1))
	}
	allocs := gateRounds(t, k, w, func(p *sim.Proc, c *mpi.Comm) error {
		me := c.Rank()
		if err := c.Allreduce(p, mpi.SumU32, sends[me], recvs[me]); err != nil {
			return err
		}
		if got := getU32(recvs[me]); got != 1+2+3+4 {
			return fmt.Errorf("lane 0 = %d, want 10", got)
		}
		return nil
	})
	if allocs != 0 {
		t.Fatalf("twenty tree Allreduces allocate %v times, want 0", allocs)
	}
	if st := w.Engine(0).Stats(); st.StreamAllreduces != 0 {
		t.Fatalf("the gate ran the in-network path: %+v", st)
	}
}

// TestNICBarrierAllocs gates a warmed NIC-combined Barrier on four
// ranks.
func TestNICBarrierAllocs(t *testing.T) {
	const nodes = 4
	k, _, w := streamCluster(t, nodes, nil, nil)
	defer k.Close()
	allocs := gateRounds(t, k, w, func(p *sim.Proc, c *mpi.Comm) error { return c.Barrier(p) })
	if allocs != 0 {
		t.Fatalf("twenty NIC barriers allocate %v times, want 0", allocs)
	}
	if st := w.Engine(0).Stats(); st.NICBarriers != warmRounds+40 || st.StreamFallbacks != 0 {
		t.Fatalf("want %d NIC barriers and no fallback, stats %+v", warmRounds+40, st)
	}
}

// nextFree returns the request engine e's next blocking call will take
// from its free list (the list is last in, first out), or nil.
func nextFree(e *mpi.Engine) *mpi.Request {
	free := e.FreeRequests()
	if len(free) == 0 {
		return nil
	}
	return free[len(free)-1]
}

// TestAbandonedRequestsAreNotRecycled: a blocking call whose wait is
// abandoned (timeout, dead peer) never returns its request to the free
// list, so the late control packets that still name it (a kRDone
// reaping the parked window, a kCTSW answered with kRRej) are ignored,
// and the receives that follow deliver intact.
func TestAbandonedRequestsAreNotRecycled(t *testing.T) {
	const size = 256 << 10
	t.Run("timeout", func(t *testing.T) {
		k := sim.NewKernel()
		defer k.Close()
		_, w := windowedWorldTimeout(t, k, 3, nil, 2*sim.Millisecond)
		warm, follow := rndvPayload(0x51, 64), rndvPayload(0x52, 1<<10)
		// abandoned holds, per rank, the request its timed-out call took.
		abandoned := make([]*mpi.Request, 3)
		w.RunSPMD(k, func(p *sim.Proc, cm *mpi.Comm) {
			e := w.Engine(cm.Rank())
			switch cm.Rank() {
			case 0:
				// A completed send puts its request on the free list;
				// the send that times out (the receiver abandons the
				// window before its kRAck) takes that one.
				if err := cm.Send(p, 2, 9, warm); err != nil {
					t.Errorf("warm send: %v", err)
					return
				}
				abandoned[0] = nextFree(e)
				p.Delay(500 * sim.Microsecond)
				if err := cm.Send(p, 1, 10, make([]byte, size)); !errors.Is(err, mpi.ErrTimeout) {
					t.Errorf("send past an abandoned receiver: %v, want ErrTimeout", err)
				}
			case 1:
				got := make([]byte, len(warm))
				if _, err := cm.Recv(p, 2, 9, got); err != nil {
					t.Errorf("warm recv: %v", err)
					return
				}
				abandoned[1] = nextFree(e)
				if _, err := cm.Recv(p, 0, 10, make([]byte, size)); !errors.Is(err, mpi.ErrTimeout) {
					t.Errorf("recv from slow sender: %v, want ErrTimeout", err)
					return
				}
				// The sender's late kRDone lands while these receives
				// progress; it must reap the parked window, not reach a
				// request.
				got = make([]byte, len(follow))
				if st, err := recvEventually(p, cm, 2, 11, got, 60); err != nil || !bytes.Equal(got[:st.Len], follow) || st.Len != len(follow) {
					t.Errorf("follow-up recv: %+v %v", st, err)
				}
			case 2:
				got := make([]byte, len(warm))
				if _, err := cm.Recv(p, 0, 9, got); err != nil {
					t.Errorf("warm recv: %v", err)
				}
				if err := cm.Send(p, 1, 9, warm); err != nil {
					t.Errorf("warm send: %v", err)
				}
				p.Delay(50 * sim.Millisecond)
				if err := cm.Send(p, 1, 11, follow); err != nil {
					t.Errorf("follow-up send: %v", err)
				}
			}
		})
		if err := k.Run(); err != nil {
			t.Fatal(err)
		}
		for r := 0; r < 2; r++ {
			if abandoned[r] == nil {
				t.Fatalf("rank %d: the warm call left no request on the free list", r)
			}
			if slices.Contains(w.Engine(r).FreeRequests(), abandoned[r]) {
				t.Errorf("rank %d: the abandoned request went back on the free list", r)
			}
		}
		if got := w.Engine(1).Stats().Received; got != 2 {
			t.Errorf("rank 1 Received = %d, want 2 (warm-up and follow-up only)", got)
		}
	})
	t.Run("dead-peer", func(t *testing.T) {
		const victim = 1
		script := &fault.Script{Seed: 9, Actions: []fault.Action{
			{At: faultAt(5 * sim.Millisecond), Kind: fault.NodeFail, Node: victim},
		}}
		k := sim.NewKernel()
		defer k.Close()
		_, w := windowedWorld(t, k, 3, script)
		warm, follow := rndvPayload(0x61, 64), rndvPayload(0x62, 64<<10)
		var abandoned *mpi.Request
		w.RunSPMD(k, func(p *sim.Proc, cm *mpi.Comm) {
			switch cm.Rank() {
			case 0:
				got := make([]byte, len(warm))
				if _, err := cm.Recv(p, 2, 9, got); err != nil {
					t.Errorf("warm recv: %v", err)
					return
				}
				abandoned = nextFree(w.Engine(0))
				var dpe *mpi.DeadPeerError
				if _, err := cm.Recv(p, victim, 4, make([]byte, size)); !errors.As(err, &dpe) || dpe.Rank != victim {
					t.Errorf("recv from dying sender: %v, want DeadPeerError{%d}", err, victim)
					return
				}
				if slices.Contains(w.Engine(0).FreeRequests(), abandoned) {
					t.Errorf("the abandoned request went back on the free list")
				}
				// The next receive is a windowed rendezvous of its own:
				// it must deliver bit-exact.
				got = make([]byte, len(follow))
				if st, err := cm.Recv(p, 2, 5, got); err != nil || st.Len != len(follow) || !bytes.Equal(got, follow) {
					t.Errorf("follow-up recv: %+v %v", st, err)
				}
			case victim:
				if err := cm.Send(p, 0, 4, make([]byte, size)); err == nil {
					t.Errorf("dying sender's Send reported success")
				}
			case 2:
				if err := cm.Send(p, 0, 9, warm); err != nil {
					t.Errorf("warm send: %v", err)
				}
				p.Delay(20 * sim.Millisecond)
				if err := cm.Send(p, 0, 5, follow); err != nil {
					t.Errorf("follow-up send: %v", err)
				}
			}
		})
		if err := k.Run(); err != nil {
			t.Fatal(err)
		}
		if abandoned == nil {
			t.Fatal("the warm receive left no request on the free list")
		}
		if slices.Contains(w.Engine(0).FreeRequests(), abandoned) {
			t.Error("the abandoned request went back on the free list after the follow-up")
		}
	})
}

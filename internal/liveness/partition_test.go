package liveness_test

import (
	"errors"
	"fmt"
	"testing"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/liveness"
	"repro/internal/metrics"
	"repro/internal/mpi"
	"repro/internal/sim"
)

// cutScript severs two ring segments at cut and splices both at heal —
// the canonical double-cut partition.
func cutScript(segA, segB int, cut, heal sim.Duration) *fault.Script {
	return &fault.Script{Seed: 77, Actions: []fault.Action{
		{At: at(cut), Kind: fault.LinkCut, Node: segA},
		{At: at(cut), Kind: fault.LinkCut, Node: segB},
		{At: at(heal), Kind: fault.LinkSplice, Node: segA},
		{At: at(heal), Kind: fault.LinkSplice, Node: segB},
	}}
}

// TestPartitionFenceAndHeal walks a full partition cycle on a 5-node
// ring: segments 1 (1→2) and 3 (3→4) are cut, splitting the ring into
// a majority arc {4,0,1} and a minority arc {2,3}. Every node must
// declare the partition (with the correct side), the minority must
// fence new sends, and after the splice everyone reconverges to an
// all-alive view with the minority resynced under a fresh incarnation.
func TestPartitionFenceAndHeal(t *testing.T) {
	const (
		nodes = 5
		cutAt = 2 * sim.Millisecond
		heal  = 12 * sim.Millisecond
	)
	k := sim.NewKernel()
	defer k.Close()
	reg := metrics.New()
	c := livenessCluster(t, k, nodes, cutScript(1, 3, cutAt, heal), reg)
	k.At(at(25*sim.Millisecond), func() {})

	majority := map[int]bool{4: true, 0: true, 1: true}

	// Probe mid-partition, comfortably after the two-tick declaration
	// but well before the heal.
	k.RunUntil(at(6 * sim.Millisecond))
	for i := 0; i < nodes; i++ {
		part, ok := ep(c, i).Partition()
		if !ok {
			t.Fatalf("t=6ms: node %d declared no partition", i)
		}
		if part.Minority == majority[i] {
			t.Fatalf("t=6ms: node %d minority=%v, want %v", i, part.Minority, !majority[i])
		}
		for _, p := range part.Peers {
			if majority[p] == majority[i] {
				t.Fatalf("t=6ms: node %d lists same-side peer %d as unreachable", i, p)
			}
		}
		wantFar := 2 // the majority's far arc is {2,3}
		if !majority[i] {
			wantFar = 3 // the minority's far arc is {4,0,1}
		}
		if len(part.Peers) != wantFar {
			t.Fatalf("t=6ms: node %d peers=%v, want %d far nodes", i, part.Peers, wantFar)
		}
		if st := ep(c, i).LivenessStats(); st.Partitions != 1 {
			t.Fatalf("t=6ms: node %d Partitions=%d, want 1", i, st.Partitions)
		}
	}

	// Minority posts are fenced with a typed error; majority posts to
	// same-side peers still work.
	k.Spawn("fence-probe", func(p *sim.Proc) {
		if err := c.Endpoints[2].Send(p, 3, []byte("x")); !errors.Is(err, core.ErrFenced) {
			t.Errorf("minority send: err=%v, want ErrFenced", err)
		}
		if err := c.Endpoints[0].Send(p, 1, []byte("y")); err != nil {
			t.Errorf("majority same-side send: %v", err)
		} else {
			buf := make([]byte, 8)
			if _, err := c.Endpoints[1].Recv(p, 0, buf); err != nil {
				t.Errorf("majority same-side recv: %v", err)
			}
		}
	})
	k.RunUntil(at(8 * sim.Millisecond))
	if fenced := ep(c, 2).Stats().FencedSends; fenced != 1 {
		t.Fatalf("minority FencedSends=%d, want 1", fenced)
	}

	// After the splice: partitions cleared, everyone alive everywhere,
	// and the minority members resynced under a bumped incarnation.
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < nodes; i++ {
		if _, ok := ep(c, i).Partition(); ok {
			t.Fatalf("node %d still partitioned after splice", i)
		}
		st := ep(c, i).LivenessStats()
		if st.PartitionHeals != 1 {
			t.Fatalf("node %d PartitionHeals=%d, want 1", i, st.PartitionHeals)
		}
		v := ep(c, i).Liveness()
		for n := 0; n < nodes; n++ {
			if n != i && v.State(n) != liveness.Alive {
				t.Fatalf("node %d sees %d %v after heal", i, n, v.State(n))
			}
		}
	}
	for _, m := range []int{2, 3} {
		if self := ep(c, m).LivenessStats().SelfRejoins; self != 1 {
			t.Fatalf("minority node %d self-rejoins=%d, want 1 (resync)", m, self)
		}
	}
	for _, m := range []int{0, 1, 4} {
		if self := ep(c, m).LivenessStats().SelfRejoins; self != 0 {
			t.Fatalf("majority node %d self-rejoins=%d, want 0", m, self)
		}
	}
	requireCountersMatchStats(t, reg, c)
}

// TestMPIPartitionErrors is the acceptance scenario: a scripted double
// cut yields a PartitionError on every minority rank within the
// confirmation window (no hangs), while majority collectives complete
// over the quorum.
func TestMPIPartitionErrors(t *testing.T) {
	const (
		nodes = 5
		cutAt = 2 * sim.Millisecond
		heal  = 40 * sim.Millisecond // after the workload settles
	)
	k := sim.NewKernel()
	defer k.Close()
	bbp := core.DefaultConfig()
	bbp.Retry = core.DefaultRetryConfig()
	lcfg := liveness.DefaultConfig()
	c, err := cluster.New(k, cluster.Options{
		Nodes: nodes, Net: cluster.SCRAMNet, BBP: &bbp,
		Faults: cutScript(1, 3, cutAt, heal), Liveness: &lcfg,
	})
	if err != nil {
		t.Fatal(err)
	}
	mcfg := mpi.DefaultConfig()
	mcfg.WaitTimeout = 100 * sim.Millisecond
	w := mpi.NewWorld(c.Endpoints, mcfg)

	majority := map[int]bool{4: true, 0: true, 1: true}
	errAt := make([]sim.Time, nodes)
	errOf := make([]error, nodes)
	sums := make([]uint32, nodes)
	w.RunSPMD(k, func(p *sim.Proc, cm *mpi.Comm) {
		me := cm.Rank()
		// Let the double cut land and the partition be declared
		// cluster-wide (the shared ticker converges every detector).
		p.Delay(cutAt + 4*sim.Millisecond)
		err := cm.Barrier(p)
		errAt[me] = p.Now()
		errOf[me] = err
		if !majority[me] {
			// Point-to-point across the cut fails typed, not hangs.
			if err := cm.Send(p, 0, 9, []byte("x")); !errors.As(err, new(*mpi.PartitionError)) {
				t.Errorf("minority rank %d cross-cut send: %v", me, err)
			}
			return
		}
		// Majority continues: an allreduce over the quorum.
		var in, out [4]byte
		in[0] = byte(1 << me)
		if err := cm.Allreduce(p, mpi.SumU32, in[:], out[:]); err != nil {
			t.Errorf("majority rank %d allreduce: %v", me, err)
			return
		}
		sums[me] = uint32(out[0])
		// Bcast rooted in the quorum also completes.
		buf := []byte{0, 0}
		if me == 0 {
			buf = []byte{7, 7}
		}
		if err := cm.Bcast(p, 0, buf); err != nil {
			t.Errorf("majority rank %d bcast: %v", me, err)
		} else if buf[0] != 7 {
			t.Errorf("majority rank %d bcast payload %v", me, buf)
		}
		// Bcast rooted on the far side cannot produce a payload.
		if err := cm.Bcast(p, 2, buf); !errors.As(err, new(*mpi.PartitionError)) {
			t.Errorf("majority rank %d far-rooted bcast: %v", me, err)
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}

	bound := lcfg.ConfirmAfter + 20*lcfg.Period
	for r := 0; r < nodes; r++ {
		if majority[r] {
			if errOf[r] != nil {
				t.Fatalf("majority rank %d barrier over quorum: %v", r, errOf[r])
			}
			if want := uint32(1<<4 | 1<<0 | 1<<1); sums[r] != want {
				t.Fatalf("majority rank %d quorum sum %#x, want %#x", r, sums[r], want)
			}
			continue
		}
		var pe *mpi.PartitionError
		if !errors.As(errOf[r], &pe) {
			t.Fatalf("minority rank %d barrier returned %v, want PartitionError", r, errOf[r])
		}
		if !pe.Minority {
			t.Fatalf("minority rank %d error claims majority side: %v", r, pe)
		}
		if len(pe.Peers) != 3 {
			t.Fatalf("minority rank %d unreachable peers %v, want the 3 majority ranks", r, pe.Peers)
		}
		delay := errAt[r].Sub(at(cutAt))
		if delay <= 0 || delay > bound {
			t.Fatalf("minority rank %d errored %v after the cut, want (0, %v]", r, delay, bound)
		}
	}
	if pe := w.Engine(0).Stats().PartitionErrors; pe == 0 {
		t.Fatal("majority rank 0 counted no partition errors (far-rooted bcast)")
	}
	if pe := w.Engine(2).Stats().PartitionErrors; pe == 0 {
		t.Fatal("minority rank 2 counted no partition errors")
	}
}

// TestPartitionSoak is the multi-seed partition/heal battery behind
// `make soak`: a double cut separates sender from receiver mid-stream,
// and the delivery oracle checks exactly-once, in-order delivery across
// the heal — no duplicates, no ghosts, nothing lost. The minority-side
// sender simply retries around the fence.
func TestPartitionSoak(t *testing.T) {
	seeds := []uint64{1, 2, 3, 4, 5}
	if testing.Short() {
		seeds = seeds[:2]
	}
	for _, seed := range seeds {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			rng := sim.NewRNG(seed)
			const nodes = 4
			// Two distinct segments chosen so the cut separates node 0
			// from node 1: one cut in [0] (the 0→1 side reached by seg 0)
			// and one in [1..3].
			segA := 0
			segB := 1 + rng.Intn(nodes-1)
			cutAt := 2*sim.Millisecond + rng.Duration(2*sim.Millisecond)
			healAt := cutAt + 5*sim.Millisecond + rng.Duration(3*sim.Millisecond)

			k := sim.NewKernel()
			defer k.Close()
			c := livenessCluster(t, k, nodes, cutScript(segA, segB, cutAt, healAt), nil)

			const msgs = 50
			var delivered [][]byte
			k.Spawn("tx", func(p *sim.Proc) {
				for i := 0; i < msgs; i++ {
					payload := []byte{byte(i + 1), byte(i + 1), byte(i + 1), byte(i + 1)}
					for {
						err := c.Endpoints[0].Send(p, 1, payload)
						if err == nil {
							break
						}
						if errors.Is(err, core.ErrFenced) {
							// Fenced mid-partition: wait out the fence and
							// resubmit — the oracle still demands exactly-once.
							p.Delay(500 * sim.Microsecond)
							continue
						}
						t.Errorf("send %d: %v", i, err)
						return
					}
					p.Delay(200 * sim.Microsecond)
				}
			})
			k.Spawn("rx", func(p *sim.Proc) {
				buf := make([]byte, 16)
				for i := 0; i < msgs; i++ {
					n, err := c.Endpoints[1].Recv(p, 0, buf)
					if err != nil {
						t.Errorf("recv %d: %v", i, err)
						return
					}
					delivered = append(delivered, append([]byte(nil), buf[:n]...))
				}
			})
			k.At(at(healAt+15*sim.Millisecond), func() {})
			if err := k.Run(); err != nil {
				t.Fatal(err)
			}

			// The delivery oracle: every message exactly once, in order.
			if len(delivered) != msgs {
				t.Fatalf("delivered %d/%d across the heal", len(delivered), msgs)
			}
			for i, d := range delivered {
				if len(d) != 4 || d[0] != byte(i+1) {
					t.Fatalf("message %d corrupted or reordered: %v", i, d)
				}
			}
			// And the membership reconverged.
			for i := 0; i < nodes; i++ {
				if _, ok := ep(c, i).Partition(); ok {
					t.Fatalf("node %d still partitioned after heal", i)
				}
				v := ep(c, i).Liveness()
				for n := 0; n < nodes; n++ {
					if n != i && v.State(n) != liveness.Alive {
						t.Fatalf("node %d sees %d %v after heal", i, n, v.State(n))
					}
				}
			}
		})
	}
}

// TestStraddlingBarrierFailsEverywhere covers the collective that is
// already in flight when the partition is declared: its fixed tree
// spans both arcs, so every rank — including majority ranks gathered
// behind a fenced peer on their own side — must abandon it with a
// typed PartitionError instead of sitting out WaitTimeout. (Quorum
// collectives entered *after* the declaration are distinguished by
// their plan mask and keep working; see TestMPIPartitionErrors.)
func TestStraddlingBarrierFailsEverywhere(t *testing.T) {
	const (
		nodes = 5
		cutAt = 2 * sim.Millisecond
		heal  = 60 * sim.Millisecond
	)
	k := sim.NewKernel()
	defer k.Close()
	bbp := core.DefaultConfig()
	bbp.Retry = core.DefaultRetryConfig()
	lcfg := liveness.DefaultConfig()
	c, err := cluster.New(k, cluster.Options{
		Nodes: nodes, Net: cluster.SCRAMNet, BBP: &bbp,
		Faults: cutScript(1, 3, cutAt, heal), Liveness: &lcfg,
	})
	if err != nil {
		t.Fatal(err)
	}
	mcfg := mpi.DefaultConfig()
	mcfg.WaitTimeout = 100 * sim.Millisecond
	w := mpi.NewWorld(c.Endpoints, mcfg)

	majority := map[int]bool{4: true, 0: true, 1: true}
	errAt := make([]sim.Time, nodes)
	w.RunSPMD(k, func(p *sim.Proc, cm *mpi.Comm) {
		me := cm.Rank()
		// Enter just after the cut lands but well before the partition
		// is declared (~SuspectAfter + two ticks later): the fixed tree
		// stalls on cross-arc messages and the declaration must break it.
		p.Delay(cutAt + 100*sim.Microsecond)
		err := cm.Barrier(p)
		errAt[me] = p.Now()
		var pe *mpi.PartitionError
		if !errors.As(err, &pe) {
			t.Errorf("rank %d straddling barrier: %v, want PartitionError", me, err)
			return
		}
		if pe.Minority == majority[me] {
			t.Errorf("rank %d error claims minority=%v", me, pe.Minority)
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	bound := lcfg.ConfirmAfter + 20*lcfg.Period
	for r := 0; r < nodes; r++ {
		delay := errAt[r].Sub(at(cutAt))
		if delay <= 0 || delay > bound {
			t.Fatalf("rank %d abandoned the barrier %v after the cut, want (0, %v] — not a WaitTimeout", r, delay, bound)
		}
	}
}

// TestSingleCutNoMPIErrors: with the dual ring, one severed segment is
// healed by the wrap path — no partition is ever declared, no MPI
// operation errors, and traffic flows byte-identically.
func TestSingleCutNoMPIErrors(t *testing.T) {
	const nodes = 4
	k := sim.NewKernel()
	defer k.Close()
	script := &fault.Script{Seed: 3, Actions: []fault.Action{
		{At: at(2 * sim.Millisecond), Kind: fault.LinkCut, Node: 1},
	}}
	bbp := core.DefaultConfig()
	bbp.Retry = core.DefaultRetryConfig()
	lcfg := liveness.DefaultConfig()
	c, err := cluster.New(k, cluster.Options{
		Nodes: nodes, Net: cluster.SCRAMNet, BBP: &bbp, Faults: script, Liveness: &lcfg,
	})
	if err != nil {
		t.Fatal(err)
	}
	mcfg := mpi.DefaultConfig()
	mcfg.WaitTimeout = 100 * sim.Millisecond
	w := mpi.NewWorld(c.Endpoints, mcfg)
	w.RunSPMD(k, func(p *sim.Proc, cm *mpi.Comm) {
		for round := 0; round < 3; round++ {
			p.Delay(2 * sim.Millisecond) // rounds 1+ run across the cut
			if err := cm.Barrier(p); err != nil {
				t.Errorf("rank %d round %d barrier: %v", cm.Rank(), round, err)
				return
			}
			var in, out [4]byte
			in[0] = 1
			if err := cm.Allreduce(p, mpi.SumU32, in[:], out[:]); err != nil {
				t.Errorf("rank %d round %d allreduce: %v", cm.Rank(), round, err)
				return
			}
			if out[0] != nodes {
				t.Errorf("rank %d round %d sum=%d, want %d", cm.Rank(), round, out[0], nodes)
			}
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < nodes; i++ {
		if _, ok := ep(c, i).Partition(); ok {
			t.Fatalf("node %d declared a partition for a single healed cut", i)
		}
		if st := ep(c, i).LivenessStats(); st.Partitions != 0 || st.Confirms != 0 {
			t.Fatalf("node %d stats %+v under a wrapped single cut", i, st)
		}
	}
}

package mpi_test

import (
	"bytes"
	"testing"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/liveness"
	"repro/internal/mpi"
	"repro/internal/sim"
)

// streamCluster builds a flat-ring SCRAMNet testbed with the streaming
// allreduce extension enabled and an MPI world on top.
func streamCluster(t testing.TB, nodes int, live *liveness.Config, faults *fault.Script) (*sim.Kernel, *cluster.Cluster, *mpi.World) {
	t.Helper()
	k := sim.NewKernel()
	bbp := core.DefaultConfig()
	bbp.Stream.Enabled = true
	c, err := cluster.New(k, cluster.Options{
		Nodes:    nodes,
		Net:      cluster.SCRAMNet,
		BBP:      &bbp,
		Liveness: live,
		Faults:   faults,
	})
	if err != nil {
		t.Fatal(err)
	}
	return k, c, mpi.NewWorld(c.Endpoints, mpi.DefaultConfig())
}

func TestAllreduceWFastPath(t *testing.T) {
	const nodes = 8
	k, c, w := streamCluster(t, nodes, nil, nil)
	w.RunSPMD(k, func(p *sim.Proc, cm *mpi.Comm) {
		me := cm.Rank()
		send := make([]byte, 16)
		for lane := 0; lane < 4; lane++ {
			putU32(send[4*lane:], uint32(me+1)<<uint(lane))
		}
		recv := make([]byte, 16)
		if err := cm.Allreduce(p, mpi.SumU32, send, recv); err != nil {
			t.Errorf("rank %d: %v", me, err)
			return
		}
		for lane := 0; lane < 4; lane++ {
			want := uint32(0)
			for r := 0; r < nodes; r++ {
				want += uint32(r+1) << uint(lane)
			}
			if got := getU32(recv[4*lane:]); got != want {
				t.Errorf("rank %d lane %d: got %d want %d", me, lane, got, want)
			}
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < nodes; i++ {
		st := w.Engine(i).Stats()
		if st.StreamAllreduces != 1 || st.StreamFallbacks != 0 {
			t.Errorf("rank %d: want 1 fast-path allreduce, stats %+v", i, st)
		}
	}
	// The handler cost model must have charged cycles somewhere on the
	// ring — the acceptance gate's "non-zero spin.handler_cycles".
	cycles := int64(0)
	for i := 0; i < nodes; i++ {
		cycles += c.Ring.NIC(i).HandlerStats().HandlerCycles
	}
	if cycles == 0 {
		t.Error("fast path ran but no handler cycles were charged")
	}
}

// TestAllreduceWMatchesTree: the NIC fast path and the software tree
// must produce byte-identical results for every named u32 op.
func TestAllreduceWMatchesTree(t *testing.T) {
	const nodes = 5
	for _, tc := range []struct {
		name string
		op   mpi.Op
	}{
		{"sum-u32", mpi.SumU32}, {"max-u32", mpi.MaxU32}, {"min-u32", mpi.MinU32},
		{"bor", mpi.BorU32}, {"band", mpi.BandU32}, {"bxor", mpi.BxorU32},
	} {
		op := tc.op
		t.Run(tc.name, func(t *testing.T) {
			k, _, w := streamCluster(t, nodes, nil, nil)
			w.RunSPMD(k, func(p *sim.Proc, cm *mpi.Comm) {
				me := cm.Rank()
				send := make([]byte, 12)
				for lane := 0; lane < 3; lane++ {
					putU32(send[4*lane:], uint32(me*2654435761)^uint32(lane*40503))
				}
				fast := make([]byte, 12)
				tree := make([]byte, 12)
				if err := cm.Allreduce(p, op, send, fast); err != nil {
					t.Errorf("rank %d fast: %v", me, err)
					return
				}
				if err := cm.Allreduce(p, op, send, tree, mpi.WithAlgorithm(mpi.Tree)); err != nil {
					t.Errorf("rank %d tree: %v", me, err)
					return
				}
				if !bytes.Equal(fast, tree) {
					t.Errorf("rank %d: fast %x != tree %x", me, fast, tree)
				}
			})
			if err := k.Run(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestAllreduceWOversizeUsesTree: vectors past StreamMax take the tree
// on every rank without touching the stream round counters.
func TestAllreduceWOversizeUsesTree(t *testing.T) {
	const nodes = 4
	k, _, w := streamCluster(t, nodes, nil, nil)
	w.RunSPMD(k, func(p *sim.Proc, cm *mpi.Comm) {
		me := cm.Rank()
		send := make([]byte, core.DefaultStreamMax+64)
		for i := 0; i+4 <= len(send); i += 4 {
			putU32(send[i:], uint32(me+i))
		}
		recv := make([]byte, len(send))
		if err := cm.Allreduce(p, mpi.SumU32, send, recv); err != nil {
			t.Errorf("rank %d: %v", me, err)
			return
		}
		want := uint32(0)
		for r := 0; r < nodes; r++ {
			want += uint32(r)
		}
		if got := getU32(recv); got != want {
			t.Errorf("rank %d lane 0: got %d want %d", me, got, want)
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < nodes; i++ {
		if st := w.Engine(i).Stats(); st.StreamAllreduces != 0 || st.StreamFallbacks != 0 {
			t.Errorf("rank %d: oversize vector entered the stream path: %+v", i, st)
		}
	}
}

// TestAllreduceWSuspectDegradesToTree reproduces the E12 degradation
// scenario: one rank's NIC drops off the ring long enough to be
// suspected, then is repaired. The fast path must decline on suspicion
// and the tree must still complete — the suspected rank is alive.
func TestAllreduceWSuspectDegradesToTree(t *testing.T) {
	const nodes = 6
	live := liveness.DefaultConfig()
	script := &fault.Script{
		Seed: 1,
		Actions: []fault.Action{
			{At: sim.Time(0).Add(1 * sim.Millisecond), Kind: fault.NodeFail, Node: 4},
			{At: sim.Time(0).Add(1700 * sim.Microsecond), Kind: fault.NodeRepair, Node: 4},
		},
	}
	k, _, w := streamCluster(t, nodes, &live, script)
	w.RunSPMD(k, func(p *sim.Proc, cm *mpi.Comm) {
		me := cm.Rank()
		// Start the collective while rank 4 is suspect (suspected at
		// 1.5ms, repaired at 1.7ms, cleared when its next heartbeat
		// circulates at ~1.8ms).
		p.Delay(1720 * sim.Microsecond)
		send := make([]byte, 8)
		putU32(send, uint32(me+1))
		putU32(send[4:], uint32(100*me))
		recv := make([]byte, 8)
		if err := cm.Allreduce(p, mpi.SumU32, send, recv); err != nil {
			t.Errorf("rank %d: %v", me, err)
			return
		}
		want0, want1 := uint32(0), uint32(0)
		for r := 0; r < nodes; r++ {
			want0 += uint32(r + 1)
			want1 += uint32(100 * r)
		}
		if getU32(recv) != want0 || getU32(recv[4:]) != want1 {
			t.Errorf("rank %d: got %x", me, recv)
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	falls := int64(0)
	for i := 0; i < nodes; i++ {
		falls += w.Engine(i).Stats().StreamFallbacks
	}
	if falls == 0 {
		t.Fatal("expected the fast path to degrade to the tree on suspicion")
	}
	for i := 0; i < nodes; i++ {
		if st := w.Engine(i).Stats(); st.StreamAllreduces != 0 {
			t.Errorf("rank %d: fast path claimed success with a suspect member: %+v", i, st)
		}
	}
}

// TestAllreduceWNoStreamSubstrate: on a substrate without the
// extension (plain BBP config), Allreduce with a named u32 op
// transparently runs the tree.
func TestAllreduceWNoStreamSubstrate(t *testing.T) {
	const nodes = 3
	k := sim.NewKernel()
	c, err := cluster.New(k, cluster.Options{Nodes: nodes, Net: cluster.SCRAMNet})
	if err != nil {
		t.Fatal(err)
	}
	w := mpi.NewWorld(c.Endpoints, mpi.DefaultConfig())
	w.RunSPMD(k, func(p *sim.Proc, cm *mpi.Comm) {
		me := cm.Rank()
		send := make([]byte, 4)
		putU32(send, uint32(me+7))
		recv := make([]byte, 4)
		if err := cm.Allreduce(p, mpi.SumU32, send, recv); err != nil {
			t.Errorf("rank %d: %v", me, err)
			return
		}
		if got := getU32(recv); got != 7+8+9 {
			t.Errorf("rank %d: got %d want %d", me, got, 7+8+9)
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < nodes; i++ {
		if st := w.Engine(i).Stats(); st.StreamAllreduces != 0 || st.StreamFallbacks != 0 {
			t.Errorf("rank %d: stream stats on a non-stream substrate: %+v", i, st)
		}
	}
}

func putU32(b []byte, v uint32) {
	b[0], b[1], b[2], b[3] = byte(v), byte(v>>8), byte(v>>16), byte(v>>24)
}

func getU32(b []byte) uint32 {
	return uint32(b[0]) | uint32(b[1])<<8 | uint32(b[2])<<16 | uint32(b[3])<<24
}

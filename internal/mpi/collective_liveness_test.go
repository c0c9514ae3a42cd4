package mpi_test

import (
	"bytes"
	"errors"
	"testing"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/liveness"
	"repro/internal/mpi"
	"repro/internal/sim"
)

// This battery degrades the unified collectives (select.go) through the
// failure detector's states: a *suspected* (bypassed then repaired)
// member must not change any collective's result — the NIC path
// declines and the re-planned tree routes around the suspect — while a
// *confirmed-dead* member must surface as a DeadPeerError within the
// confirmation window on every survivor.

// treeCluster builds a liveness-enabled SCRAMNet testbed without the
// stream extension, so Auto resolves to the (re-planned) tree paths.
// The BBP runs PIO-only with the retry extension — control must stay
// reliable across the fault script's down windows.
func treeCluster(t testing.TB, nodes int, live *liveness.Config, faults *fault.Script, mcfg mpi.Config) (*sim.Kernel, *cluster.Cluster, *mpi.World) {
	t.Helper()
	k := sim.NewKernel()
	bbp := core.DefaultConfig()
	bbp.Retry = core.DefaultRetryConfig()
	c, err := cluster.New(k, cluster.Options{
		Nodes:      nodes,
		Net:        cluster.SCRAMNet,
		BBP:        &bbp,
		PIOOnlyBBP: true,
		Liveness:   live,
		Faults:     faults,
	})
	if err != nil {
		t.Fatal(err)
	}
	return k, c, mpi.NewWorld(c.Endpoints, mcfg)
}

// suspectScript bypasses `node` at 1 ms and repairs it at 1.7 ms: a
// collective entered at 1.72 ms runs while the member is suspected but
// alive (the E12 degradation timing).
func suspectScript(node int) *fault.Script {
	return &fault.Script{Seed: 77, Actions: []fault.Action{
		{At: sim.Time(0).Add(1 * sim.Millisecond), Kind: fault.NodeFail, Node: node},
		{At: sim.Time(0).Add(1700 * sim.Microsecond), Kind: fault.NodeRepair, Node: node},
	}}
}

func delayUntil(p *sim.Proc, at sim.Time) {
	if d := at.Sub(p.Now()); d > 0 {
		p.Delay(d)
	}
}

// TestBarrierSuspectDegradesAndSynchronizes: on a stream-enabled world
// with one member suspected, Auto's NIC-combined barrier must decline
// (all-alive gate), fall back to the host tree, and still synchronize
// every rank — the suspected member included.
func TestBarrierSuspectDegradesAndSynchronizes(t *testing.T) {
	const nodes, victim = 8, 5
	live := liveness.DefaultConfig()
	k, _, w := streamCluster(t, nodes, &live, suspectScript(victim))
	start := sim.Time(0).Add(1720 * sim.Microsecond)
	var lastEntry sim.Time
	exits := make([]sim.Time, nodes)
	w.RunSPMD(k, func(p *sim.Proc, cm *mpi.Comm) {
		delayUntil(p, start)
		p.Delay(sim.Duration(cm.Rank()*3) * sim.Microsecond) // skew entries
		if p.Now() > lastEntry {
			lastEntry = p.Now()
		}
		if err := cm.Barrier(p); err != nil {
			t.Errorf("rank %d: %v", cm.Rank(), err)
			return
		}
		exits[cm.Rank()] = p.Now()
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	for r, e := range exits {
		if e < lastEntry {
			t.Errorf("rank %d exited at %v before the last arrival %v", r, e, lastEntry)
		}
	}
	st := w.Engine(0).Stats()
	if st.NICBarriers != 0 {
		t.Errorf("suspected member did not keep the barrier off the NIC path: %+v", st)
	}
	if st.StreamFallbacks == 0 {
		t.Errorf("barrier never recorded its fallback: %+v", st)
	}
}

// TestBarrierReplansAroundBypassedMember bypasses a member *inside* the
// barrier: it arrives (its gather contribution lands) and is then taken
// off the ring across the root's release fence. The root must cut a
// re-plan epoch, route the release around the suspect, and the retry
// extension must still deliver the suspect its release after repair —
// the barrier completes everywhere with nobody confirmed dead.
func TestBarrierReplansAroundBypassedMember(t *testing.T) {
	const nodes, victim = 8, 5
	live := liveness.DefaultConfig()
	script := &fault.Script{Seed: 77, Actions: []fault.Action{
		{At: sim.Time(0).Add(1 * sim.Millisecond), Kind: fault.NodeFail, Node: victim},
		{At: sim.Time(0).Add(2100 * sim.Microsecond), Kind: fault.NodeRepair, Node: victim},
	}}
	k, _, w := treeCluster(t, nodes, &live, script, mpi.DefaultConfig())
	exits := make([]sim.Time, nodes)
	w.RunSPMD(k, func(p *sim.Proc, cm *mpi.Comm) {
		entry := 1720 * sim.Microsecond
		if cm.Rank() == victim {
			entry = 900 * sim.Microsecond // arrives before its bypass at 1 ms
		}
		delayUntil(p, sim.Time(0).Add(entry))
		if err := cm.Barrier(p); err != nil {
			t.Errorf("rank %d: %v", cm.Rank(), err)
			return
		}
		exits[cm.Rank()] = p.Now()
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if got := w.Engine(0).Stats().CollReplans; got != 1 {
		t.Errorf("root cut %d re-plan epochs, want 1", got)
	}
	repair := sim.Time(0).Add(2100 * sim.Microsecond)
	if exits[victim] < repair {
		t.Errorf("bypassed member released at %v, before its repair at %v", exits[victim], repair)
	}
	for r, e := range exits {
		if e < sim.Time(0).Add(1720*sim.Microsecond) {
			t.Errorf("rank %d exited at %v before the last arrival", r, e)
		}
	}
}

// TestBcastSuspectReplanMatchesOracle: the re-planned tree broadcast
// must deliver the all-alive result to every rank — the suspect (a
// leaf off the root) included — and cut exactly one re-plan epoch,
// which clearing the suspicion later does not count again.
func TestBcastSuspectReplanMatchesOracle(t *testing.T) {
	const nodes, victim = 8, 5
	live := liveness.DefaultConfig()
	k, _, w := treeCluster(t, nodes, &live, suspectScript(victim), mpi.DefaultConfig())
	oracle := func(round byte) []byte {
		buf := make([]byte, 96)
		for i := range buf {
			buf[i] = round ^ byte(i*7)
		}
		return buf
	}
	w.RunSPMD(k, func(p *sim.Proc, cm *mpi.Comm) {
		for round, at := range []sim.Time{
			sim.Time(0).Add(1720 * sim.Microsecond), // victim suspected
			sim.Time(0).Add(8 * sim.Millisecond),    // suspicion cleared
		} {
			delayUntil(p, at)
			want := oracle(byte(round))
			buf := make([]byte, len(want))
			if cm.Rank() == 0 {
				copy(buf, want)
			}
			if err := cm.Bcast(p, 0, buf); err != nil {
				t.Errorf("rank %d round %d: %v", cm.Rank(), round, err)
				return
			}
			if !bytes.Equal(buf, want) {
				t.Errorf("rank %d round %d: payload differs from the all-alive oracle", cm.Rank(), round)
			}
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if got := w.Engine(0).Stats().CollReplans; got != 1 {
		t.Errorf("root cut %d re-plan epochs, want exactly 1 (suspicion appearing; clearing is not a re-plan)", got)
	}
}

// TestAllreduceSuspectFallsBackMatchesOracle: with a member suspected,
// Auto's NIC-combined allreduce must decline on every rank together and
// the tree fallback must produce the all-alive sums.
func TestAllreduceSuspectFallsBackMatchesOracle(t *testing.T) {
	const nodes, victim = 8, 3
	live := liveness.DefaultConfig()
	k, _, w := streamCluster(t, nodes, &live, suspectScript(victim))
	w.RunSPMD(k, func(p *sim.Proc, cm *mpi.Comm) {
		delayUntil(p, sim.Time(0).Add(1720*sim.Microsecond))
		me := cm.Rank()
		send := make([]byte, 16)
		for lane := 0; lane < 4; lane++ {
			putU32(send[4*lane:], uint32(me+1)*uint32(lane+1))
		}
		recv := make([]byte, 16)
		if err := cm.Allreduce(p, mpi.SumU32, send, recv); err != nil {
			t.Errorf("rank %d: %v", me, err)
			return
		}
		for lane := 0; lane < 4; lane++ {
			want := uint32(0)
			for r := 0; r < nodes; r++ {
				want += uint32(r+1) * uint32(lane+1)
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
		if st.StreamAllreduces != 0 || st.StreamFallbacks == 0 {
			t.Errorf("rank %d: want a uniform decline to the tree, stats %+v", i, st)
		}
	}
}

// TestBarrierTreeMidCollectiveDeath: a member dies mid-barrier on the
// tree path; every survivor — including ranks waiting on *healthy*
// peers that themselves aborted — must get a DeadPeerError blaming the
// victim within the confirmation window, because internal-tag waits
// check the whole membership, not just the direct peer.
func TestBarrierTreeMidCollectiveDeath(t *testing.T) {
	const nodes, victim = 8, 3
	kill := sim.Time(0).Add(1 * sim.Millisecond)
	script := &fault.Script{Seed: 9, Actions: []fault.Action{
		{At: kill, Kind: fault.NodeFail, Node: victim},
	}}
	live := liveness.DefaultConfig()
	mcfg := mpi.DefaultConfig()
	mcfg.WaitTimeout = 100 * sim.Millisecond
	k, _, w := treeCluster(t, nodes, &live, script, mcfg)
	errAt := make([]sim.Time, nodes)
	errOf := make([]error, nodes)
	w.RunSPMD(k, func(p *sim.Proc, cm *mpi.Comm) {
		if cm.Rank() == victim {
			return // the machine dies with its process
		}
		delayUntil(p, kill.Add(50*sim.Microsecond))
		errOf[cm.Rank()] = cm.Barrier(p)
		errAt[cm.Rank()] = p.Now()
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	bound := live.ConfirmAfter + 20*live.Period
	for r := 0; r < nodes; r++ {
		if r == victim {
			continue
		}
		var dpe *mpi.DeadPeerError
		if !errors.As(errOf[r], &dpe) {
			t.Fatalf("rank %d barrier returned %v, want DeadPeerError", r, errOf[r])
		}
		if dpe.Rank != victim {
			t.Fatalf("rank %d blamed %d, want %d", r, dpe.Rank, victim)
		}
		if delay := errAt[r].Sub(kill); delay <= 0 || delay > bound {
			t.Fatalf("rank %d errored %v after the kill, want (0, %v]", r, delay, bound)
		}
	}
}

// TestFlappingMemberCollectiveSequence: a member oscillating through
// fail/repair cycles (fault.Flap) is repeatedly suspected but never
// confirmed dead; a sequence of broadcasts and barriers threaded
// through the flap windows must all complete with the all-alive result.
func TestFlappingMemberCollectiveSequence(t *testing.T) {
	const nodes, victim = 8, 5
	live := liveness.DefaultConfig()
	mcfg := mpi.DefaultConfig()
	mcfg.WaitTimeout = 100 * sim.Millisecond
	k, _, w := treeCluster(t, nodes, &live, fault.Flap(victim, 2*sim.Millisecond, 3), mcfg)
	w.RunSPMD(k, func(p *sim.Proc, cm *mpi.Comm) {
		for round := 0; round < 6; round++ {
			delayUntil(p, sim.Time(0).Add(sim.Duration(1500+round*1500)*sim.Microsecond))
			want := make([]byte, 64)
			for i := range want {
				want[i] = byte(round*31 + i)
			}
			buf := make([]byte, len(want))
			if cm.Rank() == 0 {
				copy(buf, want)
			}
			if err := cm.Bcast(p, 0, buf); err != nil {
				t.Errorf("rank %d round %d bcast: %v", cm.Rank(), round, err)
				return
			}
			if !bytes.Equal(buf, want) {
				t.Errorf("rank %d round %d: payload differs from the all-alive oracle", cm.Rank(), round)
				return
			}
			if err := cm.Barrier(p); err != nil {
				t.Errorf("rank %d round %d barrier: %v", cm.Rank(), round, err)
				return
			}
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}

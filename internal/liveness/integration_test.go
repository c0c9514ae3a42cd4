package liveness_test

import (
	"bytes"
	"errors"
	"fmt"
	"testing"
	"testing/quick"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/liveness"
	"repro/internal/metrics"
	"repro/internal/mpi"
	"repro/internal/sim"
)

// livenessCluster builds an n-node SCRAMNet cluster with the heartbeat
// subsystem and the BBP retry extension enabled, the given fault script
// driving the ring, and metrics reported into m (nil: none).
func livenessCluster(t testing.TB, k *sim.Kernel, n int, script *fault.Script, m *metrics.Registry) *cluster.Cluster {
	t.Helper()
	bbp := core.DefaultConfig()
	bbp.Retry = core.DefaultRetryConfig()
	lcfg := liveness.DefaultConfig()
	c, err := cluster.New(k, cluster.Options{
		Nodes: n, Net: cluster.SCRAMNet, BBP: &bbp, Faults: script, Liveness: &lcfg, Metrics: m,
	})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// requireCountersMatchStats checks, on every node of c, that each
// liveness counter in m reads the Stats field it is bound to.
func requireCountersMatchStats(t *testing.T, m *metrics.Registry, c *cluster.Cluster) {
	t.Helper()
	snap := m.Snapshot()
	for i := range c.Endpoints {
		st, bst := ep(c, i).LivenessStats(), ep(c, i).Stats()
		for _, b := range []struct {
			name string
			stat int64
		}{
			{"liveness.beats", st.Beats},
			{"liveness.suspects", st.Suspects},
			{"liveness.refutes", st.Refutes},
			{"liveness.confirms_dead", st.Confirms},
			{"liveness.rejoins", st.Rejoins},
			{"liveness.fenced_beats", st.FencedBeats},
			{"liveness.self_rejoins", st.SelfRejoins},
			{"liveness.partitions_detected", st.Partitions},
			{"liveness.partition_heals", st.PartitionHeals},
			{"liveness.fenced_sends", bst.FencedSends},
			{"bbp.dead_peer_reclaims", bst.DeadPeerReclaims},
		} {
			if got, ok := snap.Counter(b.name, i); !ok || got != b.stat {
				t.Errorf("node %d %s = %d (present %v), Stats = %d", i, b.name, got, ok, b.stat)
			}
		}
	}
}

func ep(c *cluster.Cluster, i int) *core.Endpoint {
	return c.Endpoints[i].(*core.Endpoint)
}

func at(d sim.Duration) sim.Time { return sim.Time(0).Add(d) }

// TestSuspectConfirmRejoin walks one full membership cycle driven by a
// deterministic fault script: node 3 is bypassed at 2 ms, confirmed dead
// within the detector's windows, repaired at 8 ms, and rejoins with a
// fresh incarnation.
func TestSuspectConfirmRejoin(t *testing.T) {
	k := sim.NewKernel()
	defer k.Close()
	script := &fault.Script{Seed: 11, Actions: []fault.Action{
		{At: at(2 * sim.Millisecond), Kind: fault.NodeFail, Node: 3},
		{At: at(8 * sim.Millisecond), Kind: fault.NodeRepair, Node: 3},
	}}
	m := metrics.New()
	c := livenessCluster(t, k, 4, script, m)
	k.At(at(15*sim.Millisecond), func() {}) // keep the heartbeat ticker armed

	view := ep(c, 0).Liveness()
	if view == nil {
		t.Fatal("liveness enabled but endpoint exposes no view")
	}

	// Before the failure: everyone alive.
	k.RunUntil(at(1 * sim.Millisecond))
	for n := 1; n < 4; n++ {
		if view.State(n) != liveness.Alive {
			t.Fatalf("t=1ms: node %d = %v", n, view.State(n))
		}
	}

	// SuspectAfter (500 µs) past the bypass, plus a few periods of
	// slack: suspected but not yet confirmed.
	k.RunUntil(at(2*sim.Millisecond + 800*sim.Microsecond))
	if got := view.State(3); got != liveness.Suspect {
		t.Fatalf("t=2.8ms: node 3 = %v, want suspect", got)
	}

	// ConfirmAfter (2.5 ms) past the bypass, plus slack: dead.
	k.RunUntil(at(5 * sim.Millisecond))
	if got := view.State(3); got != liveness.Dead {
		t.Fatalf("t=5ms: node 3 = %v, want dead", got)
	}
	st := ep(c, 0).LivenessStats()
	if st.Suspects != 1 || st.Confirms != 1 {
		t.Fatalf("t=5ms stats: %+v", st)
	}

	// One heartbeat period after the repair the node notices its link
	// epoch turned over, bumps its incarnation, and peers readmit it.
	k.RunUntil(at(9 * sim.Millisecond))
	if got := view.State(3); got != liveness.Alive {
		t.Fatalf("t=9ms: node 3 = %v, want alive after rejoin", got)
	}
	if inc := view.Incarnation(3); inc != 2 {
		t.Fatalf("t=9ms: node 3 incarnation = %d, want 2", inc)
	}
	st = ep(c, 0).LivenessStats()
	if st.Rejoins != 1 {
		t.Fatalf("rejoins = %d, want 1", st.Rejoins)
	}
	if self := ep(c, 3).LivenessStats().SelfRejoins; self != 1 {
		t.Fatalf("node 3 self-rejoins = %d, want 1", self)
	}
	// Every survivor's detector converged to the same verdicts.
	for obs := 1; obs < 3; obs++ {
		if got := ep(c, obs).Liveness().State(3); got != liveness.Alive {
			t.Fatalf("observer %d: node 3 = %v after rejoin", obs, got)
		}
	}
	requireCountersMatchStats(t, m, c)
}

// TestMPIBarrierDeadPeer is the issue's acceptance scenario: a node dies
// mid-Barrier and every surviving rank gets a DeadPeerError within the
// detector's confirmation window — not after the retry daemon's
// MaxRetries × Timeout budget (~51 ms with doubling backoff).
func TestMPIBarrierDeadPeer(t *testing.T) {
	const (
		nodes  = 4
		victim = 2
	)
	kill := 1 * sim.Millisecond
	k := sim.NewKernel()
	defer k.Close()
	script := &fault.Script{Seed: 5, Actions: []fault.Action{
		{At: at(kill), Kind: fault.NodeFail, Node: victim},
	}}
	bbp := core.DefaultConfig()
	bbp.Retry = core.DefaultRetryConfig()
	lcfg := liveness.DefaultConfig()
	c, err := cluster.New(k, cluster.Options{
		Nodes: nodes, Net: cluster.SCRAMNet, BBP: &bbp, PIOOnlyBBP: true, Faults: script, Liveness: &lcfg,
	})
	if err != nil {
		t.Fatal(err)
	}
	mcfg := mpi.DefaultConfig()
	mcfg.WaitTimeout = 100 * sim.Millisecond
	w := mpi.NewWorld(c.Endpoints, mcfg)

	errAt := make([]sim.Time, nodes)
	errOf := make([]error, nodes)
	mcast := mpi.WithAlgorithm(mpi.Mcast)
	w.RunSPMD(k, func(p *sim.Proc, cm *mpi.Comm) {
		// A healthy barrier first, so the death lands mid-protocol.
		if err := cm.Barrier(p, mcast); err != nil {
			t.Errorf("rank %d healthy barrier: %v", cm.Rank(), err)
			return
		}
		if cm.Rank() == victim {
			return // the machine dies with its process
		}
		err := cm.Barrier(p, mcast)
		errAt[cm.Rank()] = p.Now()
		errOf[cm.Rank()] = err
		// Point-to-point operations naming the dead peer fail fast too.
		if err := cm.Send(p, victim, 9, []byte("x")); err == nil {
			t.Errorf("rank %d: send to dead peer succeeded", cm.Rank())
		} else if !errors.As(err, new(*mpi.DeadPeerError)) {
			t.Errorf("rank %d: send to dead peer: %v", cm.Rank(), err)
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}

	bound := lcfg.ConfirmAfter + 20*lcfg.Period // detection + a couple of scan rounds
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
		delay := errAt[r].Sub(at(kill))
		if delay <= 0 || delay > bound {
			t.Fatalf("rank %d errored %v after the kill, want (0, %v]", r, delay, bound)
		}
	}
}

// TestFlappingNode drives rapid fail/repair cycles with fault.Flap: each
// down phase is long enough to be confirmed dead, each up phase rejoins
// with a fresh incarnation, and flapping never poisons verdicts about
// bystanders.
func TestFlappingNode(t *testing.T) {
	const cycles = 3
	period := 7 * sim.Millisecond // down 3.5 ms (> ConfirmAfter), up 3.5 ms
	k := sim.NewKernel()
	defer k.Close()
	c := livenessCluster(t, k, 4, fault.Flap(1, period, cycles), nil)
	k.At(at(sim.Duration(cycles+2)*period), func() {})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}

	st := ep(c, 0).LivenessStats()
	if st.Suspects != cycles || st.Confirms != cycles || st.Rejoins != cycles {
		t.Fatalf("observer stats %+v, want %d of each transition", st, cycles)
	}
	if self := ep(c, 1).LivenessStats().SelfRejoins; self != cycles {
		t.Fatalf("flapper self-rejoins = %d, want %d", self, cycles)
	}
	for obs := 0; obs < 4; obs++ {
		if obs == 1 {
			continue
		}
		v := ep(c, obs).Liveness()
		for n := 0; n < 4; n++ {
			if n != obs && v.State(n) != liveness.Alive {
				t.Fatalf("observer %d: node %d = %v after flapping settled", obs, n, v.State(n))
			}
		}
		if inc := v.Incarnation(1); inc != uint32(1+cycles) {
			t.Fatalf("observer %d: flapper incarnation = %d, want %d", obs, inc, 1+cycles)
		}
	}
}

// TestLossWindowsNeverKill is the false-positive property: scripts that
// only open packet-loss windows — at any generated rate up to 0.6 —
// must never get a live node declared dead, across seeds.
func TestLossWindowsNeverKill(t *testing.T) {
	horizon := 12 * sim.Millisecond
	prop := func(seed uint64) bool {
		script := fault.Generate(seed, fault.GenConfig{
			Horizon:     horizon,
			Nodes:       4,
			LossWindows: 2,
			MaxLossRate: 0.6,
		})
		k := sim.NewKernel()
		defer k.Close()
		c := livenessCluster(t, k, 4, script, nil)
		k.At(at(horizon+2*sim.Millisecond), func() {})
		if err := k.Run(); err != nil {
			t.Errorf("seed %d: %v", seed, err)
			return false
		}
		for i := 0; i < 4; i++ {
			if confirms := ep(c, i).LivenessStats().Confirms; confirms != 0 {
				t.Errorf("seed %d (max loss %.2f): node %d confirmed %d deaths under pure loss",
					seed, script.MaxLoss(), i, confirms)
				return false
			}
			v := ep(c, i).Liveness()
			for n := 0; n < 4; n++ {
				if n != i && v.State(n) == liveness.Dead {
					t.Errorf("seed %d: node %d sees %d dead", seed, i, n)
					return false
				}
			}
		}
		return true
	}
	max := 8
	if testing.Short() {
		max = 3
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: max}); err != nil {
		t.Fatal(err)
	}
}

// TestCongestionNoFalsePositives checks the slow-node scenario: nodes
// saturating the ring with bulk traffic delay each other's heartbeats
// behind TX backlogs, but congestion alone must never confirm a death.
func TestCongestionNoFalsePositives(t *testing.T) {
	k := sim.NewKernel()
	defer k.Close()
	c := livenessCluster(t, k, 4, nil, nil)
	const msgs = 40
	payload := bytes.Repeat([]byte{0xAB}, 4096)
	for src := 0; src < 2; src++ {
		src := src
		dst := src + 2
		k.Spawn(fmt.Sprintf("tx%d", src), func(p *sim.Proc) {
			for i := 0; i < msgs; i++ {
				if err := c.Endpoints[src].Send(p, dst, payload); err != nil {
					t.Errorf("send %d->%d: %v", src, dst, err)
					return
				}
			}
		})
		k.Spawn(fmt.Sprintf("rx%d", dst), func(p *sim.Proc) {
			buf := make([]byte, len(payload))
			for i := 0; i < msgs; i++ {
				if _, err := c.Endpoints[dst].Recv(p, src, buf); err != nil {
					t.Errorf("recv %d<-%d: %v", dst, src, err)
					return
				}
			}
		})
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if confirms := ep(c, i).LivenessStats().Confirms; confirms != 0 {
			t.Fatalf("node %d confirmed %d deaths under congestion", i, confirms)
		}
	}
}

// TestSoak is the multi-seed battery behind `make soak`: generated
// scripts mixing loss windows and fail/repair cycles run against live
// traffic, and afterwards every detector must have reconverged to an
// all-alive view with the traffic delivered intact.
func TestSoak(t *testing.T) {
	seeds := []uint64{1, 2, 3, 4, 5, 6}
	if testing.Short() {
		seeds = seeds[:2]
	}
	horizon := 20 * sim.Millisecond
	for _, seed := range seeds {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			script := fault.Generate(seed, fault.GenConfig{
				Horizon:      horizon,
				Nodes:        4,
				LossWindows:  2,
				MaxLossRate:  0.5,
				NodeFailures: 2,
				Protect:      []int{0, 1}, // the traffic endpoints
			})
			k := sim.NewKernel()
			defer k.Close()
			c := livenessCluster(t, k, 4, script, nil)
			const msgs = 40
			var delivered int
			k.Spawn("tx", func(p *sim.Proc) {
				for i := 0; i < msgs; i++ {
					payload := bytes.Repeat([]byte{byte(i + 1)}, 32)
					if err := c.Endpoints[0].Send(p, 1, payload); err != nil {
						t.Errorf("send %d: %v", i, err)
						return
					}
					p.Delay(100 * sim.Microsecond)
				}
			})
			k.Spawn("rx", func(p *sim.Proc) {
				buf := make([]byte, 64)
				for i := 0; i < msgs; i++ {
					n, err := c.Endpoints[1].Recv(p, 0, buf)
					if err != nil {
						t.Errorf("recv %d: %v", i, err)
						return
					}
					if n != 32 || buf[0] != byte(i+1) {
						t.Errorf("recv %d: n=%d first=%d", i, n, buf[0])
						return
					}
					delivered++
				}
			})
			// A quiet tail long past the last repair, so every failed
			// node's rejoin (and its peers' verdicts) can settle.
			k.At(at(horizon+10*sim.Millisecond), func() {})
			if err := k.Run(); err != nil {
				t.Fatalf("script %v: %v", script, err)
			}
			if delivered != msgs {
				t.Fatalf("script %v: delivered %d/%d", script, delivered, msgs)
			}
			for i := 0; i < 4; i++ {
				v := ep(c, i).Liveness()
				for n := 0; n < 4; n++ {
					if n != i && v.State(n) != liveness.Alive {
						t.Fatalf("script %v: node %d sees %d %v after the quiet tail",
							script, i, n, v.State(n))
					}
				}
			}
		})
	}
}

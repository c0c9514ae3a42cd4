package hybrid_test

import (
	"bytes"
	"testing"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/hybrid"
	"repro/internal/liveness"
	"repro/internal/myrinet"
	"repro/internal/sim"
	"repro/internal/xport"
)

// TestProactiveFailoverOnSuspicion models the partial failure the hybrid
// router exists for: a node's SCRAMNet card is bypassed while its
// Myrinet link stays up. Once the ring's failure detector merely
// suspects the destination, small sends steer onto the high-bandwidth
// substrate before any send error or pinned billboard buffer — and the
// stream keeps flowing in order.
func TestProactiveFailoverOnSuspicion(t *testing.T) {
	const nodes, dst = 3, 2
	kill := 2 * sim.Millisecond
	k := sim.NewKernel()
	defer k.Close()

	// Fault the ring only: the script drives the SCRAMNet cluster, and
	// the Myrinet SAN is built separately, unfaulted.
	bbp := core.DefaultConfig()
	bbp.Retry = core.DefaultRetryConfig()
	lcfg := liveness.DefaultConfig()
	script := &fault.Script{Seed: 31, Actions: []fault.Action{
		{At: sim.Time(0).Add(kill), Kind: fault.NodeFail, Node: dst},
	}}
	low, err := cluster.New(k, cluster.Options{
		Nodes: nodes, Net: cluster.SCRAMNet, BBP: &bbp, Faults: script, Liveness: &lcfg,
	})
	if err != nil {
		t.Fatal(err)
	}
	san, err := xport.NewSwitch(k, myrinet.DefaultConfig(nodes))
	if err != nil {
		t.Fatal(err)
	}
	eps := make([]*hybrid.Endpoint, nodes)
	for i := 0; i < nodes; i++ {
		high := myrinet.OpenAPI(san, i, myrinet.DefaultAPIConfig())
		if eps[i], err = hybrid.New(low.Endpoints[i], high, hybrid.DefaultConfig()); err != nil {
			t.Fatal(err)
		}
	}
	if eps[0].Liveness() == nil {
		t.Fatal("hybrid router does not delegate the low substrate's liveness view")
	}

	const before, after = 4, 6
	small := []byte("below the crossover") // < Threshold: prefers the ring
	k.Spawn("tx", func(p *sim.Proc) {
		view := eps[0].Liveness()
		for i := 0; i < before; i++ {
			if err := eps[0].Send(p, dst, small); err != nil {
				t.Errorf("healthy send %d: %v", i, err)
				return
			}
			p.Delay(100 * sim.Microsecond)
		}
		if got := eps[0].Stats().ProactiveFailovers; got != 0 {
			t.Errorf("healthy sends already failed over %d times", got)
		}
		// Hold until the detector doubts dst, then resume: suspicion —
		// not confirmation, and no send error — must be enough to
		// reroute.
		for view.State(dst) == liveness.Alive {
			p.Delay(50 * sim.Microsecond)
		}
		if got := view.State(dst); got != liveness.Suspect {
			t.Errorf("detector skipped suspect: %v", got)
		}
		for i := 0; i < after; i++ {
			if err := eps[0].Send(p, dst, small); err != nil {
				t.Errorf("failover send %d: %v", i, err)
				return
			}
			p.Delay(100 * sim.Microsecond)
		}
	})
	var got int
	k.Spawn("rx", func(p *sim.Proc) {
		buf := make([]byte, 64)
		for i := 0; i < before+after; i++ {
			n, err := eps[dst].Recv(p, 0, buf)
			if err != nil {
				t.Errorf("recv %d: %v", i, err)
				return
			}
			if !bytes.Equal(buf[:n], small) {
				t.Errorf("recv %d: %q", i, buf[:n])
				return
			}
			got++
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if got != before+after {
		t.Fatalf("delivered %d/%d", got, before+after)
	}
	if pf := eps[0].Stats().ProactiveFailovers; pf != after {
		t.Fatalf("proactive failovers = %d, want %d", pf, after)
	}
}

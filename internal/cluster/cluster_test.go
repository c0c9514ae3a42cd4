package cluster

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/fault"
	"repro/internal/scramnet"
	"repro/internal/sim"
)

func TestEveryNetworkBuildsAndDelivers(t *testing.T) {
	for _, net := range AllNetworks {
		net := net
		t.Run(string(net), func(t *testing.T) {
			k := sim.NewKernel()
			c, err := New(k, Options{Nodes: 4, Net: net})
			if err != nil {
				t.Fatal(err)
			}
			if len(c.Endpoints) != 4 {
				t.Fatalf("%d endpoints", len(c.Endpoints))
			}
			msg := []byte("probe")
			var got []byte
			k.Spawn("tx", func(p *sim.Proc) {
				if err := c.Endpoints[0].Send(p, 3, msg); err != nil {
					t.Error(err)
				}
			})
			k.Spawn("rx", func(p *sim.Proc) {
				buf := make([]byte, 16)
				n, err := c.Endpoints[3].Recv(p, 0, buf)
				if err != nil {
					t.Error(err)
					return
				}
				got = buf[:n]
			})
			if err := k.Run(); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, msg) {
				t.Fatalf("got %q", got)
			}
			wantNative := net == SCRAMNet || net == Hybrid // hybrid inherits BBP multicast
			if native := c.Endpoints[0].NativeMcast(); native != wantNative {
				t.Errorf("NativeMcast = %v on %s", native, net)
			}
		})
	}
}

func TestBadOptions(t *testing.T) {
	k := sim.NewKernel()
	if _, err := New(k, Options{Nodes: 1, Net: SCRAMNet}); err == nil {
		t.Error("1-node cluster accepted")
	}
	if _, err := New(k, Options{Nodes: 4, Net: "token-ring"}); err == nil {
		t.Error("unknown network accepted")
	}
	h := scramnet.DefaultHierarchyConfig(2, 2)
	if _, err := New(k, Options{Nodes: 5, Net: SCRAMNet, Hierarchy: &h}); err == nil {
		t.Error("hierarchy host-count mismatch accepted")
	}
}

func TestPIOOnlyBBPDisablesDMA(t *testing.T) {
	k := sim.NewKernel()
	c, err := New(k, Options{Nodes: 2, Net: SCRAMNet, PIOOnlyBBP: true})
	if err != nil {
		t.Fatal(err)
	}
	if got := c.BBP.Config().Thresholds.SendDMA; got != 1<<30 {
		t.Errorf("Thresholds.SendDMA = %d", got)
	}
}

func TestHierarchyClusterEndToEnd(t *testing.T) {
	k := sim.NewKernel()
	h := scramnet.DefaultHierarchyConfig(2, 3)
	c, err := New(k, Options{Nodes: 6, Net: SCRAMNet, Hierarchy: &h})
	if err != nil {
		t.Fatal(err)
	}
	if c.Hier == nil || c.Ring != nil {
		t.Fatal("hierarchy cluster should set Hier, not Ring")
	}
	ok := false
	k.Spawn("tx", func(p *sim.Proc) {
		if err := c.Endpoints[0].Send(p, 5, []byte("far")); err != nil {
			t.Error(err)
		}
	})
	k.Spawn("rx", func(p *sim.Proc) {
		buf := make([]byte, 8)
		n, err := c.Endpoints[5].Recv(p, 0, buf)
		ok = err == nil && string(buf[:n]) == "far"
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatal("cross-leaf delivery failed")
	}
}

func TestNewMPIWorldAllNetworks(t *testing.T) {
	for _, net := range Networks {
		k := sim.NewKernel()
		if _, _, err := NewMPIWorld(k, net, 3); err != nil {
			t.Errorf("%s: %v", net, err)
		}
	}
}

func TestNewRejectsInvalidFaultScripts(t *testing.T) {
	for _, c := range []struct {
		name string
		act  fault.Action
		want string
	}{
		{"repair-not-down", fault.Action{At: 10, Kind: fault.NodeRepair, Node: 1}, "repaired at 10 while not down"},
		{"fail-out-of-range", fault.Action{At: 10, Kind: fault.NodeFail, Node: 9}, "node-fail at 10 names node 9 of 4"},
		{"fail-negative", fault.Action{At: 10, Kind: fault.NodeFail, Node: -1}, "names node -1 of 4"},
		{"cut-out-of-range", fault.Action{At: 10, Kind: fault.LinkCut, Node: 4}, "link-cut at 10 names node 4 of 4"},
	} {
		t.Run(c.name, func(t *testing.T) {
			for _, net := range []Network{SCRAMNet, Hybrid, FastEthernet} {
				s := &fault.Script{Actions: []fault.Action{c.act}}
				_, err := New(sim.NewKernel(), Options{Nodes: 4, Net: net, Faults: s})
				if err == nil || !strings.Contains(err.Error(), c.want) {
					t.Errorf("%s: err = %v, want one containing %q", net, err, c.want)
				}
			}
		})
	}
	ok := &fault.Script{Actions: []fault.Action{
		{At: 10, Kind: fault.NodeFail, Node: 3},
		{At: 20, Kind: fault.NodeRepair, Node: 3},
		{At: 30, Kind: fault.LossStart, Rate: 0.1},
	}}
	if _, err := New(sim.NewKernel(), Options{Nodes: 4, Net: SCRAMNet, Faults: ok}); err != nil {
		t.Fatalf("valid script rejected: %v", err)
	}
}

package core

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/scramnet"
	"repro/internal/sim"
)

// hierWorld builds a BBP system over a bridged ring-of-rings: the §2
// path to clusters beyond the 256-node ring limit.
func hierWorld(t testing.TB, leaves, hostsPerLeaf int) (*sim.Kernel, *System, []*Endpoint) {
	t.Helper()
	k := sim.NewKernel()
	hcfg := scramnet.DefaultHierarchyConfig(leaves, hostsPerLeaf)
	hcfg.Ring.SingleWriterCheck = true
	h, err := scramnet.NewHierarchy(k, hcfg)
	if err != nil {
		t.Fatal(err)
	}
	sys, err := New(h, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	eps := make([]*Endpoint, h.Nodes())
	for i := range eps {
		if eps[i], err = sys.Attach(i); err != nil {
			t.Fatal(err)
		}
	}
	return k, sys, eps
}

func TestBBPOverHierarchyCrossRing(t *testing.T) {
	// Host 0 (leaf 0) talks to host 3 (leaf 1): the whole protocol —
	// flags, descriptors, data, ACK-driven GC — crosses two bridges.
	k, _, eps := hierWorld(t, 2, 2)
	msg := []byte("across the backbone")
	var got []byte
	k.Spawn("tx", func(p *sim.Proc) {
		if err := eps[0].Send(p, 3, msg); err != nil {
			t.Error(err)
		}
	})
	k.Spawn("rx", func(p *sim.Proc) {
		buf := make([]byte, 64)
		n, err := eps[3].Recv(p, 0, buf)
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
}

func TestBBPOverHierarchyBroadcast(t *testing.T) {
	// One bbp_Mcast reaches hosts on every leaf: replication forwards
	// the single posted buffer everywhere.
	k, _, eps := hierWorld(t, 3, 2)
	msg := []byte("to all six hosts")
	ok := make([]bool, 6)
	k.Spawn("root", func(p *sim.Proc) {
		if err := eps[0].Bcast(p, msg); err != nil {
			t.Error(err)
		}
	})
	for r := 1; r < 6; r++ {
		r := r
		k.Spawn(fmt.Sprintf("rx%d", r), func(p *sim.Proc) {
			buf := make([]byte, 64)
			n, err := eps[r].Recv(p, 0, buf)
			ok[r] = err == nil && bytes.Equal(buf[:n], msg)
		})
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	for r := 1; r < 6; r++ {
		if !ok[r] {
			t.Errorf("host %d missed the cross-ring broadcast", r)
		}
	}
}

func TestBBPOverHierarchyGCWithRemoteAcks(t *testing.T) {
	// ACK toggles written on one leaf must reach the sender's ring for
	// its garbage collector; more messages than slots forces GC.
	k, _, eps := hierWorld(t, 2, 2)
	const count = 80
	k.Spawn("tx", func(p *sim.Proc) {
		for i := 0; i < count; i++ {
			if err := eps[0].Send(p, 2, []byte{byte(i)}); err != nil {
				t.Errorf("send %d: %v", i, err)
				return
			}
		}
	})
	received := 0
	k.Spawn("rx", func(p *sim.Proc) {
		buf := make([]byte, 8)
		for i := 0; i < count; i++ {
			if _, err := eps[2].Recv(p, 0, buf); err != nil || buf[0] != byte(i) {
				t.Errorf("recv %d: %v (%d)", i, err, buf[0])
				return
			}
			received++
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if received != count {
		t.Fatalf("received %d of %d", received, count)
	}
}

func TestHierarchyLatencyPenaltyAtBBPLevel(t *testing.T) {
	oneWay := func(build func(k *sim.Kernel) (RingNetwork, int)) float64 {
		k := sim.NewKernel()
		net, dst := build(k)
		sys, err := New(net, DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		e0, err := sys.Attach(0)
		if err != nil {
			t.Fatal(err)
		}
		eD, err := sys.Attach(dst)
		if err != nil {
			t.Fatal(err)
		}
		var sent, recvd sim.Time
		k.Spawn("rx", func(p *sim.Proc) {
			buf := make([]byte, 8)
			if _, err := eD.Recv(p, 0, buf); err != nil {
				t.Error(err)
			}
			recvd = p.Now()
		})
		k.Spawn("tx", func(p *sim.Proc) {
			p.Delay(10 * sim.Microsecond)
			sent = p.Now()
			if err := e0.Send(p, dst, []byte{1, 2, 3, 4}); err != nil {
				t.Error(err)
			}
		})
		if err := k.Run(); err != nil {
			t.Fatal(err)
		}
		return recvd.Sub(sent).Microseconds()
	}
	flat := oneWay(func(k *sim.Kernel) (RingNetwork, int) {
		n, err := scramnet.New(k, scramnet.DefaultConfig(4))
		if err != nil {
			t.Fatal(err)
		}
		return n, 2
	})
	hier := oneWay(func(k *sim.Kernel) (RingNetwork, int) {
		h, err := scramnet.NewHierarchy(k, scramnet.DefaultHierarchyConfig(2, 2))
		if err != nil {
			t.Fatal(err)
		}
		return h, 2 // first host of the second leaf
	})
	if hier <= flat {
		t.Fatalf("cross-ring BBP latency %.1fµs not above flat-ring %.1fµs", hier, flat)
	}
	if hier > flat+15 {
		t.Fatalf("bridge penalty %.1fµs implausibly large (flat %.1fµs)", hier-flat, flat)
	}
}

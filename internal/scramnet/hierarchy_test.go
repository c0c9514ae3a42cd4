package scramnet

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/sim"
)

func newHier(t *testing.T, leaves, hostsPerLeaf int) (*sim.Kernel, *Hierarchy) {
	t.Helper()
	k := sim.NewKernel()
	h, err := NewHierarchy(k, DefaultHierarchyConfig(leaves, hostsPerLeaf))
	if err != nil {
		t.Fatal(err)
	}
	return k, h
}

func TestHierarchyConfigValidation(t *testing.T) {
	k := sim.NewKernel()
	if _, err := NewHierarchy(k, DefaultHierarchyConfig(1, 2)); err == nil {
		t.Error("single-leaf hierarchy accepted")
	}
	cfg := DefaultHierarchyConfig(2, 2)
	cfg.LeafHosts[1] = 0
	if _, err := NewHierarchy(k, cfg); err == nil {
		t.Error("empty leaf accepted")
	}
}

func TestHierarchyGlobalNumbering(t *testing.T) {
	_, h := newHier(t, 3, 2)
	if h.Nodes() != 6 {
		t.Fatalf("Nodes = %d, want 6", h.Nodes())
	}
	// Hosts 0,1 on leaf 0; 2,3 on leaf 1; 4,5 on leaf 2.
	if h.NIC(2) != h.Leaf(1).NIC(0) {
		t.Error("global host 2 should be leaf 1 node 0")
	}
	if h.NIC(5) != h.Leaf(2).NIC(1) {
		t.Error("global host 5 should be leaf 2 node 1")
	}
}

func TestHierarchyCrossRingReplication(t *testing.T) {
	k, h := newHier(t, 3, 2)
	data := make([]byte, 500)
	sim.NewRNG(1).Bytes(data)
	k.Spawn("writer", func(p *sim.Proc) {
		h.NIC(0).Write(p, 4096, data) // host on leaf 0
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < h.Nodes(); i++ {
		if !bytes.Equal(h.NIC(i).Peek(4096, len(data)), data) {
			t.Errorf("host %d bank missing the cross-ring write", i)
		}
	}
	// Backbone and bridge banks replicate too (full address space
	// everywhere).
	if !bytes.Equal(h.Backbone().NIC(2).Peek(4096, len(data)), data) {
		t.Error("backbone bank missing the write")
	}
	if !h.Quiescent() {
		t.Error("hierarchy not quiescent after Run")
	}
}

func TestHierarchyPerSenderFIFOAcrossRings(t *testing.T) {
	// Writes from a host on leaf 0 must apply at a host on leaf 2 in
	// issue order even though they crossed two bridges.
	k, h := newHier(t, 3, 2)
	var arrived []int
	h.NIC(4).EnableInterrupts(true, func(off int) { arrived = append(arrived, off) })
	k.Spawn("writer", func(p *sim.Proc) {
		for i := 0; i < 24; i++ {
			h.NIC(0).WriteWordInterrupt(p, i*4, uint32(i))
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if len(arrived) != 24 {
		t.Fatalf("got %d arrivals, want 24", len(arrived))
	}
	for i, off := range arrived {
		if off != i*4 {
			t.Fatalf("cross-ring FIFO violated at %d: offset %d", i, off)
		}
	}
}

func TestHierarchyLatencyExceedsFlatRing(t *testing.T) {
	// Crossing two bridges and three rings must cost more than a flat
	// ring of the same host count.
	flatLat := func() sim.Duration {
		k := sim.NewKernel()
		n, err := New(k, DefaultConfig(4))
		if err != nil {
			t.Fatal(err)
		}
		var at sim.Time
		n.NIC(2).EnableInterrupts(true, func(off int) { at = k.Now() })
		k.Spawn("w", func(p *sim.Proc) { n.NIC(0).WriteWordInterrupt(p, 0, 1) })
		if err := k.Run(); err != nil {
			t.Fatal(err)
		}
		return at.Sub(0)
	}()
	hierLat := func() sim.Duration {
		k, h := newHier(t, 2, 2)
		var at sim.Time
		h.NIC(2).EnableInterrupts(true, func(off int) { at = k.Now() }) // other leaf
		k.Spawn("w", func(p *sim.Proc) { h.NIC(0).WriteWordInterrupt(p, 0, 1) })
		if err := k.Run(); err != nil {
			t.Fatal(err)
		}
		return at.Sub(0)
	}()
	if hierLat <= flatLat {
		t.Fatalf("hierarchy latency %v not above flat ring %v", hierLat, flatLat)
	}
}

func TestHierarchySingleWriterCheckGlobal(t *testing.T) {
	k := sim.NewKernel()
	cfg := DefaultHierarchyConfig(2, 2)
	cfg.Ring.SingleWriterCheck = true
	h, err := NewHierarchy(k, cfg)
	if err != nil {
		t.Fatal(err)
	}
	panicked := false
	k.Spawn("w0", func(p *sim.Proc) { h.NIC(0).WriteWord(p, 0, 1) }) // leaf 0
	k.Spawn("w2", func(p *sim.Proc) {                                // leaf 1
		p.Delay(sim.Millisecond)
		func() {
			defer func() { panicked = recover() != nil }()
			h.NIC(2).WriteWord(p, 0, 2)
		}()
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if !panicked {
		t.Error("cross-ring single-writer violation not caught")
	}
}

func TestHierarchyManyLeavesAllPairs(t *testing.T) {
	// Every host writes its own word; every bank ends identical.
	k, h := newHier(t, 4, 3)
	for i := 0; i < h.Nodes(); i++ {
		i := i
		k.Spawn(fmt.Sprintf("w%d", i), func(p *sim.Proc) {
			h.NIC(i).WriteWord(p, i*4, uint32(0xA0+i))
		})
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < h.Nodes(); i++ {
		for j := 0; j < h.Nodes(); j++ {
			if got := h.NIC(j).Peek(i*4, 1)[0]; got != byte(0xA0+i) {
				t.Fatalf("host %d's word not at host %d: %#x", i, j, got)
			}
		}
	}
}

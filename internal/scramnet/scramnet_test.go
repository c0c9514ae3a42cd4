package scramnet

import (
	"bytes"
	"testing"
	"testing/quick"

	"repro/internal/sim"
)

func newNet(t *testing.T, nodes int, mutate ...func(*Config)) (*sim.Kernel, *Network) {
	t.Helper()
	k := sim.NewKernel()
	cfg := DefaultConfig(nodes)
	for _, m := range mutate {
		m(&cfg)
	}
	n, err := New(k, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return k, n
}

func TestConfigValidation(t *testing.T) {
	k := sim.NewKernel()
	bad := []Config{
		{Nodes: 1, MemBytes: 4096, TxFIFOBytes: 64},
		{Nodes: 300, MemBytes: 4096, TxFIFOBytes: 64},
		{Nodes: 4, MemBytes: 0, TxFIFOBytes: 64},
		{Nodes: 4, MemBytes: 4095, TxFIFOBytes: 64},
		{Nodes: 4, MemBytes: 4096, TxFIFOBytes: 0},
	}
	for i, cfg := range bad {
		if _, err := New(k, cfg); err == nil {
			t.Errorf("config %d accepted, want error", i)
		}
	}
}

func TestWordReplication(t *testing.T) {
	k, n := newNet(t, 4)
	k.Spawn("writer", func(p *sim.Proc) {
		n.NIC(0).WriteWord(p, 128, 0xdeadbeef)
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if got := n.NIC(i).Peek(128, 4); !bytes.Equal(got, []byte{0xef, 0xbe, 0xad, 0xde}) {
			t.Errorf("node %d bank = %x", i, got)
		}
	}
	if !n.Quiescent() {
		t.Error("network not quiescent after Run")
	}
}

func TestBlockReplicationAllBanksIdentical(t *testing.T) {
	k, n := newNet(t, 5)
	data := make([]byte, 3000)
	rng := sim.NewRNG(7)
	rng.Bytes(data)
	k.Spawn("writer", func(p *sim.Proc) {
		n.NIC(2).Write(p, 4096, data)
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if got := n.NIC(i).Peek(4096, len(data)); !bytes.Equal(got, data) {
			t.Fatalf("node %d bank differs from written data", i)
		}
	}
}

func TestPerSenderFIFOOrder(t *testing.T) {
	// Writes by one node must be applied at every other node in issue
	// order. Observed via arrival interrupts at the farthest node.
	k, n := newNet(t, 4)
	var arrived []int
	n.NIC(3).EnableInterrupts(true, func(off int) { arrived = append(arrived, off) })
	k.Spawn("writer", func(p *sim.Proc) {
		for i := 0; i < 32; i++ {
			n.NIC(0).WriteWordInterrupt(p, i*4, uint32(i))
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if len(arrived) != 32 {
		t.Fatalf("got %d arrivals, want 32", len(arrived))
	}
	for i, off := range arrived {
		if off != i*4 {
			t.Fatalf("arrival %d at offset %d: per-sender FIFO violated", i, off)
		}
	}
}

func TestNonCoherence(t *testing.T) {
	// Two nodes writing the same word at the same instant: nodes between
	// them on the ring observe the writes in different orders, so banks
	// legitimately diverge. This documents the paper's §2 caveat.
	k, n := newNet(t, 4, func(c *Config) { c.SingleWriterCheck = false })
	k.Spawn("w0", func(p *sim.Proc) { n.NIC(0).WriteWord(p, 0, 0xAAAAAAAA) })
	k.Spawn("w2", func(p *sim.Proc) { n.NIC(2).WriteWord(p, 0, 0xBBBBBBBB) })
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	v1 := n.NIC(1).Peek(0, 4)
	v3 := n.NIC(3).Peek(0, 4)
	if bytes.Equal(v1, v3) {
		t.Fatalf("nodes 1 and 3 agree (%x); expected divergent final values for concurrent writers", v1)
	}
}

func TestSingleWriterCheckPanics(t *testing.T) {
	k, n := newNet(t, 3, func(c *Config) { c.SingleWriterCheck = true })
	panicked := false
	k.Spawn("w0", func(p *sim.Proc) { n.NIC(0).WriteWord(p, 0, 1) })
	k.Spawn("w1", func(p *sim.Proc) {
		p.Delay(100 * sim.Microsecond)
		func() {
			defer func() { panicked = recover() != nil }()
			n.NIC(1).WriteWord(p, 0, 2)
		}()
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if !panicked {
		t.Error("expected single-writer panic")
	}
	// An explicit hand-over makes node 1 the word's writer and node 0 the
	// intruder.
	n.NIC(0).AssignOwner(1, 0, 4)
	panicked = false
	k.Spawn("w1-owner", func(p *sim.Proc) { n.NIC(1).WriteWord(p, 0, 3) })
	k.Spawn("w0-intruder", func(p *sim.Proc) {
		p.Delay(100 * sim.Microsecond)
		func() {
			defer func() { panicked = recover() != nil }()
			n.NIC(0).WriteWord(p, 0, 4)
		}()
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if !panicked {
		t.Error("expected single-writer panic after the hand-over")
	}
	if got := n.NIC(2).Peek(0, 4)[0]; got != 3 {
		t.Errorf("assigned owner's write not replicated: %#x", got)
	}
}

func TestBoundedVisibilityLatency(t *testing.T) {
	// A single uncontended word write must be visible at the farthest
	// node within hops*(hop+wire) plus the PIO cost — the bounded,
	// predictable latency claim of §2.
	k, n := newNet(t, 8)
	cfg := n.Config()
	var visible sim.Time
	n.NIC(7).EnableInterrupts(true, func(off int) { visible = k.Now() - sim.Time(cfg.InterruptLatency) })
	k.Spawn("writer", func(p *sim.Proc) { n.NIC(0).WriteWordInterrupt(p, 0, 1) })
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	bound := sim.Time(cfg.Bus.PIOWriteWord) +
		sim.Time(7)*sim.Time(cfg.HopDelay+cfg.FixedPacketWire)
	if visible == 0 || visible > bound {
		t.Fatalf("visible at %d, bound %d", visible, bound)
	}
}

func TestFixedModeThroughput(t *testing.T) {
	// A long PIO stream is throttled by the TX FIFO to the fixed-mode
	// ring rate: 4 bytes per 615 ns ≈ 6.5 MB/s.
	k, n := newNet(t, 4)
	const size = 1 << 16
	var elapsed sim.Duration
	k.Spawn("writer", func(p *sim.Proc) {
		start := p.Now()
		n.NIC(0).Write(p, 0, make([]byte, size))
		elapsed = p.Now().Sub(start)
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	mbps := float64(size) / (float64(elapsed) / 1e9) / 1e6
	if mbps < 5.5 || mbps > 6.8 {
		t.Fatalf("fixed-mode throughput %.2f MB/s, want ≈6.5", mbps)
	}
}

func TestVariableModeThroughputHigher(t *testing.T) {
	measure := func(mode Mode) float64 {
		k, n := newNet(t, 4, func(c *Config) { c.Mode = mode })
		const size = 1 << 16
		var elapsed sim.Duration
		k.Spawn("writer", func(p *sim.Proc) {
			start := p.Now()
			n.NIC(0).WriteDMA(p, 0, make([]byte, size))
			elapsed = p.Now().Sub(start)
		})
		if err := k.Run(); err != nil {
			t.Fatal(err)
		}
		return float64(size) / (float64(elapsed) / 1e9) / 1e6
	}
	fixed, variable := measure(FixedPackets), measure(VariablePackets)
	if variable <= fixed {
		t.Fatalf("variable mode %.1f MB/s not faster than fixed %.1f MB/s", variable, fixed)
	}
	if variable < 14 || variable > 17.5 {
		t.Fatalf("variable-mode throughput %.2f MB/s, want ≈16.7", variable)
	}
}

func TestDualRingBypassKeepsReplicating(t *testing.T) {
	k, n := newNet(t, 4)
	n.FailNode(1)
	if n.NIC(1).LinkUp() || !n.NIC(0).LinkUp() {
		t.Fatal("LinkUp does not follow FailNode")
	}
	k.Spawn("writer", func(p *sim.Proc) { n.NIC(0).WriteWord(p, 0, 42) })
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	for _, i := range []int{2, 3} {
		if n.NIC(i).Peek(0, 4)[0] != 42 {
			t.Errorf("node %d missed write despite dual-ring bypass", i)
		}
	}
	if n.NIC(1).Peek(0, 4)[0] == 42 {
		t.Error("bypassed node should not have applied the write")
	}
}

func TestSingleRingBreakLosesDownstream(t *testing.T) {
	k, n := newNet(t, 4, func(c *Config) { c.DualRing = false })
	n.FailNode(1)
	k.Spawn("writer", func(p *sim.Proc) { n.NIC(0).WriteWord(p, 0, 42) })
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	for _, i := range []int{2, 3} {
		if n.NIC(i).Peek(0, 4)[0] == 42 {
			t.Errorf("node %d received write across a broken single ring", i)
		}
	}
	if n.NIC(0).Stats().PacketsLost == 0 {
		t.Error("expected a lost-packet count on the origin")
	}
}

func TestRepairNodeResumesReplication(t *testing.T) {
	k, n := newNet(t, 4)
	n.FailNode(2)
	k.Spawn("writer", func(p *sim.Proc) {
		n.NIC(0).WriteWord(p, 0, 1)
		p.Delay(100 * sim.Microsecond)
		n.RepairNode(2)
		n.NIC(0).WriteWord(p, 4, 2)
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if n.NIC(2).Peek(0, 4)[0] == 1 {
		t.Error("node 2 should have missed the first write")
	}
	if n.NIC(2).Peek(4, 4)[0] != 2 {
		t.Error("node 2 should see writes after repair")
	}
}

func TestInterruptLatencyCharged(t *testing.T) {
	k, n := newNet(t, 2)
	cfg := n.Config()
	var handled sim.Time
	n.NIC(1).EnableInterrupts(true, func(off int) { handled = k.Now() })
	k.Spawn("writer", func(p *sim.Proc) { n.NIC(0).WriteWordInterrupt(p, 0, 1) })
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if handled < sim.Time(cfg.InterruptLatency) {
		t.Fatalf("handler ran at %d, before interrupt latency %d", handled, cfg.InterruptLatency)
	}
	if n.NIC(1).Stats().InterruptsTaken != 1 {
		t.Fatalf("InterruptsTaken = %d", n.NIC(1).Stats().InterruptsTaken)
	}
}

func TestInterruptsDisabledByDefault(t *testing.T) {
	k, n := newNet(t, 2)
	k.Spawn("writer", func(p *sim.Proc) { n.NIC(0).WriteWordInterrupt(p, 0, 1) })
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if n.NIC(1).Stats().InterruptsTaken != 0 {
		t.Error("interrupt taken while disabled")
	}
}

func TestOutOfRangeAccessPanics(t *testing.T) {
	k, n := newNet(t, 2)
	panicked := false
	k.Spawn("writer", func(p *sim.Proc) {
		func() {
			defer func() { panicked = recover() != nil }()
			n.NIC(0).WriteWord(p, n.NIC(0).Size(), 1)
		}()
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if !panicked {
		t.Error("expected out-of-range panic")
	}
}

func TestReplicationProperty(t *testing.T) {
	// Property: for any single writer, offset, and payload, after
	// quiescence every live bank holds the payload (zero-copy hardware
	// replication is content-agnostic).
	f := func(seed uint64, offRaw uint16, sizeRaw uint16) bool {
		k := sim.NewKernel()
		defer k.Close()
		cfg := DefaultConfig(4)
		n, err := New(k, cfg)
		if err != nil {
			return false
		}
		off := int(offRaw) % (cfg.MemBytes - 4096)
		size := int(sizeRaw)%2048 + 1
		data := make([]byte, size)
		sim.NewRNG(seed).Bytes(data)
		writer := int(seed % 4)
		k.Spawn("w", func(p *sim.Proc) { n.NIC(writer).Write(p, off, data) })
		if err := k.Run(); err != nil {
			return false
		}
		for i := 0; i < 4; i++ {
			if !bytes.Equal(n.NIC(i).Peek(off, size), data) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestHopDelayScalesWithDistance(t *testing.T) {
	// Visibility time at node k grows linearly in ring distance.
	k, n := newNet(t, 8)
	times := make([]sim.Time, 8)
	for i := 1; i < 8; i++ {
		i := i
		n.NIC(i).EnableInterrupts(true, func(off int) {
			if times[i] == 0 {
				times[i] = k.Now()
			}
		})
	}
	k.Spawn("writer", func(p *sim.Proc) { n.NIC(0).WriteWordInterrupt(p, 0, 7) })
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	for i := 2; i < 8; i++ {
		if times[i] <= times[i-1] {
			t.Fatalf("visibility not monotonic in hop count: t[%d]=%d t[%d]=%d", i-1, times[i-1], i, times[i])
		}
	}
}

// TestWriteWordAllocsIndependentOfRingSize pins the ring hot path at zero
// allocations per hop: a replicated WriteWord allocates the same on a
// 4-node ring as on a 16-node ring, because its per-hop state lives on
// the packet and its hop steps are bound once, at inject.
func TestWriteWordAllocsIndependentOfRingSize(t *testing.T) {
	// Each period issues one write and lets it circulate fully: a
	// 16-node revolution takes 16 × (250 + 615) ns ≈ 14 µs.
	const period = 50 * sim.Microsecond
	allocs := func(nodes int) float64 {
		k, n := newNet(t, nodes, func(c *Config) { c.MemBytes = 4096 })
		defer k.Close()
		k.SpawnDaemon("writer", func(p *sim.Proc) {
			for v := uint32(0); ; v++ {
				start := p.Now()
				n.NIC(0).WriteWord(p, 128, v)
				p.Delay(period - p.Now().Sub(start))
			}
		})
		k.RunFor(2 * period)
		return testing.AllocsPerRun(50, func() { k.RunFor(period) })
	}
	a4, a16 := allocs(4), allocs(16)
	t.Logf("allocs per replicated WriteWord: %v (4 nodes), %v (16 nodes)", a4, a16)
	if a4 != a16 {
		t.Fatalf("WriteWord allocates %v objects on a 4-node ring and %v on a 16-node ring, want equal", a4, a16)
	}
}

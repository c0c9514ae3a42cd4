package scramnet

import (
	"testing"

	"repro/internal/metrics"
	"repro/internal/sim"
)

func TestDropRateZeroLosesNothing(t *testing.T) {
	k, n := newNet(t, 4)
	k.Spawn("w", func(p *sim.Proc) {
		for i := 0; i < 100; i++ {
			n.NIC(0).WriteWord(p, i*4, uint32(i))
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if lost := n.NIC(0).Stats().PacketsLost; lost != 0 {
		t.Fatalf("lost %d packets at DropRate 0", lost)
	}
}

func TestDropRateLosesAndCounts(t *testing.T) {
	k, n := newNet(t, 4, func(c *Config) { c.Seed = 7 })
	n.SetDropRate(0.5)
	k.Spawn("w", func(p *sim.Proc) {
		for i := 0; i < 200; i++ {
			n.NIC(0).WriteWord(p, i*4, 0xFFFFFFFF)
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	lost := n.NIC(0).Stats().PacketsLost
	if lost < 60 || lost > 140 {
		t.Fatalf("lost %d of 200 at DropRate 0.5", lost)
	}
	// Dropped packets never reached the peers' banks.
	missing := 0
	for i := 0; i < 200; i++ {
		if n.NIC(2).Peek(i*4, 1)[0] != 0xFF {
			missing++
		}
	}
	if int64(missing) == 0 {
		t.Fatal("no holes in the remote bank despite drops")
	}
}

func TestFaultsDeterministic(t *testing.T) {
	lost := func() int64 {
		k, n := newNet(t, 4, func(c *Config) { c.Seed = 42 })
		n.SetDropRate(0.3)
		k.Spawn("w", func(p *sim.Proc) {
			for i := 0; i < 100; i++ {
				n.NIC(0).WriteWord(p, i*4, 1)
			}
		})
		if err := k.Run(); err != nil {
			t.Fatal(err)
		}
		return n.NIC(0).Stats().PacketsLost
	}
	if a, b := lost(), lost(); a != b {
		t.Fatalf("fault injection not deterministic: %d vs %d", a, b)
	}
}

// TestPacketsLostCounterMatchesStats drives each way a packet can be
// lost — a bypassed origin writing, in-flight CRC corruption and a
// broken single ring — and requires every node's ring.packets_lost
// counter to read exactly its Stats().PacketsLost.
func TestPacketsLostCounterMatchesStats(t *testing.T) {
	for _, tc := range []struct {
		name   string
		cfg    func(*Config)
		inject func(*Network)
	}{
		{"bypassed-origin", func(*Config) {}, func(n *Network) { n.FailNode(0) }},
		{"crc-drop", func(c *Config) { c.Seed = 7 }, func(n *Network) { n.SetDropRate(0.5) }},
		{"broken-ring", func(c *Config) { c.DualRing = false }, func(n *Network) { n.CutLink(1) }},
	} {
		k, n := newNet(t, 4, tc.cfg)
		m := metrics.New()
		n.SetMetrics(m)
		tc.inject(n)
		for w := 0; w < 4; w++ {
			k.Spawn("writer", func(p *sim.Proc) {
				for i := 0; i < 20; i++ {
					n.NIC(w).WriteWord(p, 4*(20*w+i), uint32(i))
				}
			})
		}
		if err := k.Run(); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		snap := m.Snapshot()
		var total int64
		for i := 0; i < 4; i++ {
			want := n.NIC(i).Stats().PacketsLost
			if got, _ := snap.Counter("ring.packets_lost", i); got != want {
				t.Errorf("%s: node %d ring.packets_lost = %d, Stats().PacketsLost = %d", tc.name, i, got, want)
			}
			total += want
		}
		if total == 0 {
			t.Errorf("%s: no packet was lost", tc.name)
		}
	}
}

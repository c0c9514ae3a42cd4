package scramnet

import (
	"bytes"
	"math"
	"testing"

	"repro/internal/sim"
	"repro/internal/spin"
)

// fnHandler adapts a function to spin.Handler for ring-level tests.
type fnHandler func(ctx *spin.HandlerCtx, pkt spin.Packet) spin.Verdict

func (f fnHandler) OnTransit(ctx *spin.HandlerCtx, pkt spin.Packet) spin.Verdict {
	return f(ctx, pkt)
}

func TestHandlerConsumeStripsPacket(t *testing.T) {
	k, n := newNet(t, 4)
	n.NIC(1).InstallHandler(128, 4, fnHandler(func(ctx *spin.HandlerCtx, pkt spin.Packet) spin.Verdict {
		ctx.Charge(1)
		return spin.Consume
	}))
	k.Spawn("writer", func(p *sim.Proc) {
		n.NIC(0).WriteWord(p, 128, 0xcafef00d)
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	// Nodes 0 (writer, synchronous) and 1 (consumer, applies) see the
	// word; nodes 2 and 3 never do.
	want := []byte{0x0d, 0xf0, 0xfe, 0xca}
	for _, i := range []int{0, 1} {
		if got := n.NIC(i).Peek(128, 4); !bytes.Equal(got, want) {
			t.Errorf("node %d bank = %x, want %x", i, got, want)
		}
	}
	for _, i := range []int{2, 3} {
		if got := n.NIC(i).Peek(128, 4); !bytes.Equal(got, make([]byte, 4)) {
			t.Errorf("node %d bank = %x, want zeros", i, got)
		}
	}
	st := n.NIC(1).HandlerStats()
	if st.PacketsConsumed != 1 || st.HandlersRun != 1 {
		t.Errorf("stats %+v", st)
	}
	if !n.Quiescent() {
		t.Error("ring not quiescent")
	}
}

func TestHandlerSteerSkipsLocalApply(t *testing.T) {
	k, n := newNet(t, 4)
	n.NIC(2).InstallHandler(128, 4, fnHandler(func(ctx *spin.HandlerCtx, pkt spin.Packet) spin.Verdict {
		ctx.Charge(1)
		return spin.Steer
	}))
	k.Spawn("writer", func(p *sim.Proc) {
		n.NIC(0).WriteWord(p, 128, 0xcafef00d)
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	want := []byte{0x0d, 0xf0, 0xfe, 0xca}
	for _, i := range []int{0, 1, 3} {
		if got := n.NIC(i).Peek(128, 4); !bytes.Equal(got, want) {
			t.Errorf("node %d bank = %x, want %x", i, got, want)
		}
	}
	if got := n.NIC(2).Peek(128, 4); !bytes.Equal(got, make([]byte, 4)) {
		t.Errorf("steer node bank = %x, want zeros", got)
	}
	if st := n.NIC(2).HandlerStats(); st.PacketsSteered != 1 {
		t.Errorf("stats %+v", st)
	}
}

func TestHandlerRewritePropagatesDownstreamAndToOrigin(t *testing.T) {
	k, n := newNet(t, 4)
	n.NIC(1).InstallHandler(128, 4, fnHandler(func(ctx *spin.HandlerCtx, pkt spin.Packet) spin.Verdict {
		ctx.Charge(1)
		pkt.Data[0]++
		return spin.Rewrite
	}))
	k.Spawn("writer", func(p *sim.Proc) {
		n.NIC(0).WriteWord(p, 128, 0x10)
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	// Node 1 rewrites 0x10 -> 0x11; nodes 1..3 and — via strip-apply —
	// the origin all see the rewritten value.
	for i := 0; i < 4; i++ {
		if got := n.NIC(i).Peek(128, 1)[0]; got != 0x11 {
			t.Errorf("node %d byte = %#x, want 0x11", i, got)
		}
	}
	if st := n.NIC(1).HandlerStats(); st.PacketsRewritten != 1 {
		t.Errorf("stats %+v", st)
	}
}

func TestHandlerCostChargedInVirtualTime(t *testing.T) {
	const cycles = 100
	run := func(install bool) sim.Duration {
		k, n := newNet(t, 3)
		if install {
			n.NIC(1).InstallHandler(128, 4, fnHandler(func(ctx *spin.HandlerCtx, pkt spin.Packet) spin.Verdict {
				ctx.Charge(cycles)
				return spin.Forward
			}))
		}
		var done sim.Time
		k.Spawn("writer", func(p *sim.Proc) {
			n.NIC(0).WriteWord(p, 128, 1)
		})
		if err := k.Run(); err != nil {
			t.Fatal(err)
		}
		done = k.Now()
		return sim.Duration(done)
	}
	base, handled := run(false), run(true)
	wantDelta := cycles * DefaultHandlerCycleCost
	if handled-base != wantDelta {
		t.Errorf("handler cost: drained at %v vs %v, delta %v want %v",
			handled, base, handled-base, wantDelta)
	}
}

func TestHandlerBudgetTrapAtRingLevel(t *testing.T) {
	k, n := newNet(t, 3, func(c *Config) { c.HandlerBudget = 10 })
	n.NIC(1).InstallHandler(128, 4, fnHandler(func(ctx *spin.HandlerCtx, pkt spin.Packet) spin.Verdict {
		pkt.Data[0] = 0xff // must be rolled back by the trap
		ctx.Charge(1 << 20)
		return spin.Consume // must be ignored: trapped packets forward
	}))
	k.Spawn("writer", func(p *sim.Proc) {
		n.NIC(0).WriteWord(p, 128, 0x42)
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if got := n.NIC(i).Peek(128, 1)[0]; got != 0x42 {
			t.Errorf("node %d byte = %#x, want 0x42 (trap must roll back and forward)", i, got)
		}
	}
	st := n.NIC(1).HandlerStats()
	if st.TrapsToHost != 1 || st.HandlerCycles != 10 || st.PacketsConsumed != 0 {
		t.Errorf("stats %+v", st)
	}
}

func TestSetDropRateClamps(t *testing.T) {
	_, n := newNet(t, 3)
	for _, c := range []struct{ in, want float64 }{
		{-0.5, 0}, {1.5, 1}, {math.NaN(), 0}, {math.Inf(1), 1}, {math.Inf(-1), 0}, {0.25, 0.25},
	} {
		n.SetDropRate(c.in)
		if got := n.dropRate; got != c.want {
			t.Errorf("SetDropRate(%v): got %v want %v", c.in, got, c.want)
		}
	}
}

// TestEnableInterruptsNilHandler is the regression test for the panic:
// arming interrupts with a nil handler used to crash on the first
// interrupt-flagged packet.
func TestEnableInterruptsNilHandler(t *testing.T) {
	k, n := newNet(t, 3)
	n.NIC(1).EnableInterrupts(true, nil) // must not arm, must not panic
	k.Spawn("writer", func(p *sim.Proc) {
		n.NIC(0).WriteWordInterrupt(p, 128, 0xabad1dea)
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if got := n.NIC(1).Peek(128, 4); !bytes.Equal(got, []byte{0xea, 0x1d, 0xad, 0xab}) {
		t.Errorf("interrupt write not applied: %x", got)
	}
}

// TestHandlerDeterminism: two identical runs with handlers, drops and a
// mid-flight failure must produce byte-identical banks and identical
// spin.* counters.
func TestHandlerDeterminism(t *testing.T) {
	type result struct {
		banks [][]byte
		stats []spin.Stats
	}
	run := func() result {
		k, n := newNet(t, 5, func(c *Config) { c.Seed = 77 })
		n.SetDropRate(0.3)
		for i := 1; i < 5; i++ {
			i := i
			n.NIC(i).InstallHandler(128, 64, fnHandler(func(ctx *spin.HandlerCtx, pkt spin.Packet) spin.Verdict {
				ctx.Charge(2)
				if pkt.Off%8 == 0 {
					pkt.Data[0] ^= byte(i)
					return spin.Rewrite
				}
				return spin.Forward
			}))
		}
		k.Spawn("writer", func(p *sim.Proc) {
			for w := 0; w < 16; w++ {
				n.NIC(0).WriteWord(p, 128+4*w, uint32(0x1000+w))
			}
		})
		k.At(sim.Time(0).Add(5*sim.Microsecond), func() { n.FailNode(3) })
		if err := k.Run(); err != nil {
			t.Fatal(err)
		}
		r := result{}
		for i := 0; i < 5; i++ {
			r.banks = append(r.banks, n.NIC(i).Peek(128, 64))
			r.stats = append(r.stats, n.NIC(i).HandlerStats())
		}
		return r
	}
	a, b := run(), run()
	for i := range a.banks {
		if !bytes.Equal(a.banks[i], b.banks[i]) {
			t.Errorf("node %d banks differ:\n%x\n%x", i, a.banks[i], b.banks[i])
		}
		if a.stats[i] != b.stats[i] {
			t.Errorf("node %d spin stats differ: %+v vs %+v", i, a.stats[i], b.stats[i])
		}
	}
}

package core

import (
	"testing"

	"repro/internal/pci"
	"repro/internal/sim"
)

// idleReceiver builds a world of nodes endpoints whose last one blocks
// in recv with nothing ever sent, and runs it into its idle poll loop.
func idleReceiver(t testing.TB, nodes int, mut func(*Config), recv func(p *sim.Proc, e *Endpoint)) *sim.Kernel {
	t.Helper()
	k, _, eps := world(t, nodes, func(c *Config) {
		c.RecvTimeout = 0
		if mut != nil {
			mut(c)
		}
	})
	k.Spawn("rx", func(p *sim.Proc) { recv(p, eps[nodes-1]) })
	k.RunFor(10 * sim.Microsecond)
	return k
}

// TestIdlePollAllocs pins idle polling — Recv's focused per-word poll,
// RecvAny's burst and per-word sweeps, and the retry extension's
// two-word poll — at zero allocations: each run covers several idle
// poll iterations.
func TestIdlePollAllocs(t *testing.T) {
	recv := func(p *sim.Proc, e *Endpoint) { e.Recv(p, 0, nil) }
	recvAny := func(p *sim.Proc, e *Endpoint) { e.RecvAny(p, nil) }
	for _, c := range []struct {
		name  string
		nodes int
		mut   func(*Config)
		recv  func(p *sim.Proc, e *Endpoint)
	}{
		{"recv-word", 2, nil, recv},
		{"recvany-burst", 4, nil, recvAny},
		{"recvany-word", 4, func(c *Config) { c.BurstPoll = BurstOff }, recvAny},
		{"retry-word", 2, func(c *Config) {
			c.Retry = DefaultRetryConfig()
			c.BurstPoll = BurstOff
		}, recv},
	} {
		t.Run(c.name, func(t *testing.T) {
			k := idleReceiver(t, c.nodes, c.mut, c.recv)
			defer k.Close()
			if allocs := testing.AllocsPerRun(100, func() { k.RunFor(5 * sim.Microsecond) }); allocs != 0 {
				t.Fatalf("idle polling allocates %v objects per run, want 0", allocs)
			}
		})
	}
}

// BenchmarkIdleRecvPoll measures the host cost of one idle poll
// iteration of a blocked Recv on the per-word path: the PollOverhead
// step plus one flag read that sees no change.
func BenchmarkIdleRecvPoll(b *testing.B) {
	k := idleReceiver(b, 2, nil, func(p *sim.Proc, e *Endpoint) { e.Recv(p, 0, nil) })
	defer k.Close()
	period := DefaultCosts().PollOverhead + pci.DefaultConfig().PIOReadWord
	b.ReportAllocs()
	b.ResetTimer()
	k.RunFor(sim.Duration(b.N) * period)
}

// TestSendRecvAllocs pins a warmed-up BBP message at zero allocations:
// a 64-byte Send from node 0 and the Recv that takes it at node 1, the
// pending queue and the ring included. Each run sends several messages,
// so a pending queue that re-allocated on every pop would show.
func TestSendRecvAllocs(t *testing.T) {
	k, _, eps := world(t, 2, func(c *Config) { c.RecvTimeout = 0 })
	defer k.Close()
	got := 0
	k.SpawnDaemon("rx", func(p *sim.Proc) {
		buf := make([]byte, 64)
		for {
			if _, err := eps[1].Recv(p, 0, buf); err != nil {
				t.Error(err)
				return
			}
			got++
		}
	})
	msg := make([]byte, 64)
	send := k.Spawn("tx", func(p *sim.Proc) {
		for {
			p.Park()
			for i := 0; i < 4; i++ {
				if err := eps[0].Send(p, 1, msg); err != nil {
					t.Error(err)
					return
				}
			}
		}
	}).Resume
	round := func() {
		k.At(k.Now(), send)
		k.RunFor(2 * sim.Millisecond)
	}
	// Warm up past sequence number 255 as well: trace arguments that
	// small are boxed without allocating, so a call that boxed them on
	// an untraced run would hide until then.
	const warm = 70
	for i := 0; i < warm; i++ {
		round()
	}
	twenty := func() {
		for i := 0; i < 20; i++ {
			round()
		}
	}
	if allocs := testing.AllocsPerRun(1, twenty); allocs != 0 {
		t.Fatalf("twenty rounds of four Send/Recv messages allocate %v times, want 0", allocs)
	}
	if want := 4 * (warm + 40); got != want {
		t.Fatalf("received %d messages, want %d", got, want)
	}
}

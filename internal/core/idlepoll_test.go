package core

import (
	"testing"

	"repro/internal/pci"
	"repro/internal/sim"
)

// idleReceiver builds a world of nodes endpoints whose last one blocks
// in recv with nothing ever sent, runs it into its idle poll loop, and
// returns the kernel and that endpoint.
func idleReceiver(t testing.TB, nodes int, mut func(*Config), recv func(p *sim.Proc, e *Endpoint)) (*sim.Kernel, *Endpoint) {
	t.Helper()
	k, _, eps := world(t, nodes, func(c *Config) {
		c.RecvTimeout = 0
		if mut != nil {
			mut(c)
		}
	})
	e := eps[nodes-1]
	k.Spawn("rx", func(p *sim.Proc) { recv(p, e) })
	k.RunFor(10 * sim.Microsecond)
	return k, e
}

// The blocked receives of the idle-poll gates: Recv from rank 0,
// RecvAny, and a loop of MsgAvail calls.
var (
	idleRecv     = func(p *sim.Proc, e *Endpoint) { e.Recv(p, 0, nil) }
	idleRecvAny  = func(p *sim.Proc, e *Endpoint) { e.RecvAny(p, nil) }
	idleMsgAvail = func(p *sim.Proc, e *Endpoint) {
		for !e.MsgAvail(p) {
		}
	}
)

// TestIdlePollAllocs pins idle polling — Recv's focused per-word poll,
// RecvAny's burst and per-word passes, the retry extension's two-word
// poll, and MsgAvail's passes, each taking a poller per call — at zero
// allocations: each run covers several idle poll iterations.
func TestIdlePollAllocs(t *testing.T) {
	burstOff := func(c *Config) { c.BurstPoll = BurstOff }
	for _, c := range []struct {
		name  string
		nodes int
		mut   func(*Config)
		recv  func(p *sim.Proc, e *Endpoint)
	}{
		{"recv-word", 2, nil, idleRecv},
		{"recvany-burst", 4, nil, idleRecvAny},
		{"recvany-word", 4, burstOff, idleRecvAny},
		{"retry-word", 2, func(c *Config) {
			c.Retry = DefaultRetryConfig()
			c.BurstPoll = BurstOff
		}, idleRecv},
		{"msgavail-burst", 4, nil, idleMsgAvail},
		{"msgavail-word", 4, burstOff, idleMsgAvail},
	} {
		t.Run(c.name, func(t *testing.T) {
			k, _ := idleReceiver(t, c.nodes, c.mut, c.recv)
			defer k.Close()
			if allocs := testing.AllocsPerRun(100, func() { k.RunFor(5 * sim.Microsecond) }); allocs != 0 {
				t.Fatalf("idle polling allocates %v objects per run, want 0", allocs)
			}
		})
	}
}

// BenchmarkIdleRecvPoll measures the host cost of one idle poll of a
// blocked receive: the PollOverhead step plus a flag read that sees no
// change, per-word for Recv on two nodes and one burst of the flag
// region for RecvAny and MsgAvail on four.
func BenchmarkIdleRecvPoll(b *testing.B) {
	for _, c := range []struct {
		name  string
		nodes int
		recv  func(p *sim.Proc, e *Endpoint)
	}{
		{"recv-word", 2, idleRecv},
		{"recvany-burst", 4, idleRecvAny},
		{"msgavail-burst", 4, idleMsgAvail},
	} {
		b.Run(c.name, func(b *testing.B) {
			k, e := idleReceiver(b, c.nodes, nil, c.recv)
			defer k.Close()
			read := pci.DefaultConfig().PIOReadWord
			if c.nodes > 2 {
				read = e.nic.Bus().BurstReadCost(e.burstWords)
			}
			b.ReportAllocs()
			b.ResetTimer()
			k.RunFor(sim.Duration(b.N) * (DefaultCosts().PollOverhead + read))
		})
	}
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

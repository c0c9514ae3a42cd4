package scramnet

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/sim"
	"repro/internal/spin"
	"repro/internal/trace"
)

// checkRecycled fails unless every packet object n ever allocated is
// back on its free list, each exactly once.
func checkRecycled(t *testing.T, name string, n *Network) {
	t.Helper()
	seen := map[*packet]bool{}
	for _, pkt := range n.free {
		if seen[pkt] {
			t.Fatalf("%s: a packet is on the free list twice", name)
		}
		seen[pkt] = true
		if pkt.net != nil {
			t.Fatalf("%s: a free packet still names its ring", name)
		}
	}
	if len(n.free) != n.made {
		t.Fatalf("%s: %d packets made, %d back on the free list", name, n.made, len(n.free))
	}
}

// countEnds tallies the outcomes closing the ring spans in r by their
// first word: bypassed, crc-drop, ring-broken, isolated, strip or
// consumed.
func countEnds(r *trace.Recorder, ends map[string]int) {
	for _, e := range r.Events() {
		if e.Cat == trace.Ring && e.Name == "pkt-end" {
			ends[strings.Fields(e.Detail.String())[0]]++
		}
	}
}

// lifecycleRing runs a lossy, faulted, handler-laden write mix on one
// six-node ring and checks that every packet came back to the free
// list. Node 1's handlers consume, rewrite or steer the packets landing
// on words 64, 68 and 72; node 2 fails (bypassing its own queued
// writes) and is repaired; segments 3 and 4 are cut, isolating node 4
// with packets queued at its link, then spliced.
func lifecycleRing(t *testing.T, mode Mode, dual bool, ends map[string]int) {
	k, n := newNet(t, 6, func(c *Config) {
		c.Mode = mode
		c.DualRing = dual
		c.Seed = 7
	})
	n.SetDropRate(0.05)
	r := trace.New()
	n.SetTracer(r)
	n.NIC(1).InstallHandler(64, 12, fnHandler(func(ctx *spin.HandlerCtx, pkt spin.Packet) spin.Verdict {
		ctx.Charge(2)
		switch pkt.Off {
		case 64:
			return spin.Consume
		case 68:
			pkt.Data[0]++
			return spin.Rewrite
		case 72:
			return spin.Steer
		}
		return spin.Forward
	}))
	for w := 0; w < 6; w++ {
		w := w
		k.Spawn(fmt.Sprint("writer", w), func(p *sim.Proc) {
			buf := make([]byte, 24)
			for i := 0; i < 40; i++ {
				buf[0] = byte(i)
				n.NIC(w).Write(p, 256+64*w, buf)
				n.NIC(w).WriteWord(p, 64+4*(i%4), uint32(i))
				p.Delay(sim.Duration(w+1) * 300)
			}
		})
	}
	k.At(8000, func() { n.FailNode(2) })
	k.At(30000, func() { n.RepairNode(2) })
	k.At(45000, func() { n.CutLink(3); n.CutLink(4) })
	k.At(70000, func() { n.SpliceLink(3); n.SpliceLink(4) })
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if !n.Quiescent() {
		t.Fatal("ring not quiescent after Run")
	}
	checkRecycled(t, fmt.Sprintf("%s dual=%v", mode, dual), n)
	countEnds(r, ends)
}

// TestPacketLifecycle checks the packet free list against a run that
// ends packets at all six terminal points: bypassed origin, CRC drop,
// broken ring (single ring), isolated arc (dual ring), strip and
// handler consume, on fixed and variable packets, plus the packets a
// hierarchy's bridges re-post on the far ring. At quiescence every
// packet object is back on its ring's free list exactly once, and a
// hop step that ran on a released packet would have faulted on its
// nil ring.
func TestPacketLifecycle(t *testing.T) {
	ends := map[string]int{}
	for _, mode := range []Mode{FixedPackets, VariablePackets} {
		for _, dual := range []bool{true, false} {
			lifecycleRing(t, mode, dual, ends)
		}
	}

	k, h := newHier(t, 3, 2)
	r := trace.New()
	h.SetTracer(r)
	for i := 0; i < h.Nodes(); i++ {
		i := i
		k.Spawn(fmt.Sprint("w", i), func(p *sim.Proc) {
			for j := 0; j < 8; j++ {
				h.NIC(i).WriteWord(p, 4*(8*i+j), uint32(j+1))
			}
		})
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	checkRecycled(t, "backbone", h.Backbone())
	for li := 0; li < 3; li++ {
		checkRecycled(t, fmt.Sprint("leaf ", li), h.Leaf(li))
	}
	if h.Backbone().made == 0 {
		t.Fatal("no packet crossed a bridge")
	}
	countEnds(r, ends)

	for _, end := range []string{"bypassed", "crc-drop", "ring-broken", "isolated", "strip", "consumed"} {
		if ends[end] == 0 {
			t.Errorf("no packet ended %q; outcomes %v", end, ends)
		}
	}
}

// TestReleasedPacketFaults checks the guard the free list rests on: a
// released packet has no ring, so releasing it again or running one of
// its hop steps panics instead of corrupting the packet's next trip.
func TestReleasedPacketFaults(t *testing.T) {
	_, n := newNet(t, 4)
	pkt := n.newPacket(0, 0, []byte{1, 2, 3, 4}, false, 0, 0)
	n.release(pkt)
	for name, step := range map[string]func(){
		"release": func() { n.release(pkt) },
		"depart":  pkt.depart,
		"arrive":  pkt.arrive,
		"proceed": pkt.proceed,
		"cross":   pkt.cross,
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s on a released packet did not panic", name)
				}
			}()
			step()
		}()
	}
}

// revolver is a ring whose node 0 writes one word per resume and then
// parks: each k.At(now, resume) plus a RunFor is one full revolution.
type revolver struct {
	k      *sim.Kernel
	n      *Network
	v      uint32 // the last word written
	resume func()
}

func newRevolver(t testing.TB) *revolver {
	k := sim.NewKernel()
	n, err := New(k, DefaultConfig(4))
	if err != nil {
		t.Fatal(err)
	}
	rv := &revolver{k: k, n: n}
	rv.resume = k.Spawn("writer", func(p *sim.Proc) {
		for {
			p.Park()
			rv.v++
			n.NIC(0).WriteWord(p, 64, rv.v)
		}
	}).Resume
	rv.revolve() // warm up: the packet, the link backlogs and the event queue
	return rv
}

// revolve writes one word and runs until its packet is stripped.
func (rv *revolver) revolve() {
	rv.k.At(rv.k.Now(), rv.resume)
	rv.k.RunFor(20 * sim.Microsecond)
}

// TestWordRevolutionAllocs pins the steady-state host cost of a ring
// write: once warmed up, a word write's packet makes its full
// revolution without allocating.
func TestWordRevolutionAllocs(t *testing.T) {
	rv := newRevolver(t)
	defer rv.k.Close()
	if allocs := testing.AllocsPerRun(100, rv.revolve); allocs != 0 {
		t.Fatalf("a word write's revolution allocates %.1f times, want 0", allocs)
	}
	if got := rv.n.NIC(3).SampleWord(64); got != rv.v || !rv.n.Quiescent() {
		t.Fatalf("last node holds %d of %d written, quiescent %v: the revolutions did not complete", got, rv.v, rv.n.Quiescent())
	}
	if rv.n.made != 1 {
		t.Fatalf("%d packet objects made, want the warm-up's one", rv.n.made)
	}
}

// BenchmarkRingRevolution measures one word write on a 4-node ring
// from the host's store to the strip at its origin.
func BenchmarkRingRevolution(b *testing.B) {
	b.ReportAllocs()
	rv := newRevolver(b)
	defer rv.k.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rv.revolve()
	}
}

package scramnet

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/metrics"
	"repro/internal/sim"
)

// TestSingleCutWrapsByteIdentical cuts each segment in turn on a dual
// ring and checks §2's wrap-healing claim: one severed fiber pair is
// healed by wrapping onto the secondary ring, so every node still
// receives every write byte-identically, with no packet loss — only
// added latency, visible as ring.wrap_hops.
func TestSingleCutWrapsByteIdentical(t *testing.T) {
	const nodes = 4
	for seg := 0; seg < nodes; seg++ {
		k, n := newNet(t, nodes)
		m := metrics.New()
		n.SetMetrics(m)
		n.CutLink(seg)
		for w := 0; w < nodes; w++ {
			w := w
			k.Spawn("writer", func(p *sim.Proc) {
				n.NIC(w).WriteWord(p, 4*w, uint32(0x100+w))
			})
		}
		if err := k.Run(); err != nil {
			t.Fatal(err)
		}
		ref := n.NIC(0).Peek(0, 4*nodes)
		for i := 1; i < nodes; i++ {
			if got := n.NIC(i).Peek(0, 4*nodes); !bytes.Equal(got, ref) {
				t.Fatalf("seg %d cut: node %d bank %x != node 0 bank %x", seg, i, got, ref)
			}
		}
		for i := 0; i < nodes; i++ {
			if lost := n.NIC(i).Stats().PacketsLost; lost != 0 {
				t.Errorf("seg %d cut: node %d lost %d packets", seg, i, lost)
			}
		}
		if wraps := m.Counter("ring.wrap_hops", metrics.NodeGlobal).Value(); wraps == 0 {
			t.Errorf("seg %d cut: no wrap hops counted", seg)
		}
		if cuts := m.Counter("ring.link_cuts", metrics.NodeGlobal).Value(); cuts != 1 {
			t.Errorf("seg %d cut: link_cuts = %d, want 1", seg, cuts)
		}
	}
}

// TestSingleCutAddsLatencyOnly compares a clean ring against a cut one:
// the wrap path may only delay delivery, never change what arrives.
func TestSingleCutAddsLatencyOnly(t *testing.T) {
	run := func(cut bool) (sim.Time, []byte) {
		k, n := newNet(t, 4)
		if cut {
			n.CutLink(0)
		}
		k.Spawn("writer", func(p *sim.Proc) { n.NIC(0).WriteWord(p, 64, 7) })
		if err := k.Run(); err != nil {
			t.Fatal(err)
		}
		return k.Now(), n.NIC(3).Peek(64, 4)
	}
	cleanEnd, cleanBank := run(false)
	cutEnd, cutBank := run(true)
	if !bytes.Equal(cleanBank, cutBank) {
		t.Fatalf("cut changed delivered bytes: %x vs %x", cutBank, cleanBank)
	}
	if cutEnd <= cleanEnd {
		t.Errorf("wrap path should cost extra latency: clean %v, cut %v", cleanEnd, cutEnd)
	}
}

// TestDoubleCutSegmentsRing severs two segments: the ring splits into
// two arcs and writes no longer cross the cuts, but delivery within
// each arc continues — the precondition for the partition machinery.
func TestDoubleCutSegmentsRing(t *testing.T) {
	// Segments 1 (1→2) and 3 (3→0): arcs {0,1} and {2,3}.
	k, n := newNet(t, 4)
	n.CutLink(1)
	n.CutLink(3)
	for i := 0; i < 4; i++ {
		if got := n.NIC(i).RingCuts(); got != 2 {
			t.Fatalf("NIC(%d).RingCuts = %d, want 2", i, got)
		}
		if want := i == 1 || i == 3; n.LinkCut(i) != want {
			t.Fatalf("LinkCut(%d) = %v, want %v", i, n.LinkCut(i), want)
		}
	}
	k.Spawn("w0", func(p *sim.Proc) { n.NIC(0).WriteWord(p, 0, 0xa) })
	k.Spawn("w2", func(p *sim.Proc) { n.NIC(2).WriteWord(p, 4, 0xb) })
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if n.NIC(1).Peek(0, 4)[0] != 0xa {
		t.Error("node 1 (same arc as 0) missed node 0's write")
	}
	for _, i := range []int{2, 3} {
		if n.NIC(i).Peek(0, 4)[0] == 0xa {
			t.Errorf("node %d (far arc) received node 0's write across the cuts", i)
		}
	}
	if n.NIC(3).Peek(4, 4)[0] != 0xb {
		t.Error("node 3 (same arc as 2) missed node 2's write")
	}
	for _, i := range []int{0, 1} {
		if n.NIC(i).Peek(4, 4)[0] == 0xb {
			t.Errorf("node %d (far arc) received node 2's write across the cuts", i)
		}
	}
}

// TestSpliceRestoresDelivery verifies the heal: after both segments
// are spliced, new writes reach everyone again.
func TestSpliceRestoresDelivery(t *testing.T) {
	k, n := newNet(t, 4)
	n.CutLink(1)
	n.CutLink(3)
	k.Spawn("writer", func(p *sim.Proc) {
		n.NIC(0).WriteWord(p, 0, 1)
		p.Delay(50 * sim.Microsecond)
		n.SpliceLink(1)
		n.SpliceLink(3)
		n.NIC(0).WriteWord(p, 4, 2)
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if got := n.NIC(2).RingCuts(); got != 0 {
		t.Fatalf("RingCuts = %d after splice, want 0", got)
	}
	if n.LinkCut(1) || n.LinkCut(3) {
		t.Fatal("LinkCut reports a spliced segment as severed")
	}
	for _, i := range []int{2, 3} {
		if n.NIC(i).Peek(0, 4)[0] == 1 {
			t.Errorf("node %d received pre-splice write across the partition", i)
		}
		if n.NIC(i).Peek(4, 4)[0] != 2 {
			t.Errorf("node %d missed the post-splice write", i)
		}
	}
}

// TestSingleRingCutLosesDownstream: without the secondary ring there is
// no wrap path — a cut drops everything that would cross it.
func TestSingleRingCutLosesDownstream(t *testing.T) {
	k, n := newNet(t, 4, func(c *Config) { c.DualRing = false })
	n.CutLink(1)
	k.Spawn("writer", func(p *sim.Proc) { n.NIC(0).WriteWord(p, 0, 42) })
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	for _, i := range []int{2, 3} {
		if n.NIC(i).Peek(0, 4)[0] == 42 {
			t.Errorf("node %d received across a cut single ring", i)
		}
	}
	if n.NIC(0).Stats().PacketsLost == 0 {
		t.Error("expected lost packets charged to the origin")
	}
}

// TestRouteBrokenRing covers the forwarding decision's error paths: a
// severed single ring reports the cut, and a dual ring whose every node
// is bypassed reports a broken ring instead of spinning forever (the
// bug the bounded walk fixed).
func TestRouteBrokenRing(t *testing.T) {
	_, single := newNet(t, 4, func(c *Config) { c.DualRing = false })
	single.CutLink(2)
	if _, _, _, _, err := single.route(2); err == nil {
		t.Fatal("single-ring cut: route returned no error")
	} else {
		var bre *BrokenRingError
		if !errors.As(err, &bre) || !bre.Cut {
			t.Fatalf("single-ring cut: err = %v, want BrokenRingError{Cut: true}", err)
		}
		if want := "scramnet: ring broken at node 2: severed segment with no secondary path"; err.Error() != want {
			t.Fatalf("single-ring cut: err = %q, want %q", err, want)
		}
	}

	_, dual := newNet(t, 4)
	for i := 0; i < 4; i++ {
		dual.FailNode(i)
		if dual.NIC(i).LinkUp() {
			t.Fatalf("NIC(%d).LinkUp after FailNode", i)
		}
	}
	if _, _, _, _, err := dual.route(0); err == nil {
		t.Fatal("all-bypassed dual ring: route returned no error (would spin)")
	} else {
		var bre *BrokenRingError
		if !errors.As(err, &bre) || bre.Cut {
			t.Fatalf("all-bypassed: err = %v, want BrokenRingError{Cut: false}", err)
		}
		if want := "scramnet: ring broken at node 0: no live station reachable"; err.Error() != want {
			t.Fatalf("all-bypassed: err = %q, want %q", err, want)
		}
	}

	// Healthy ring: the decision agrees with plain successor stepping.
	_, ok := newNet(t, 4)
	if next, _, _, _, err := ok.route(1); err != nil || next != 2 {
		t.Fatalf("healthy route(1) = %d, %v; want 2, nil", next, err)
	}
}

// TestBypassPlusCut combines the two dual-ring heals: node 1 optically
// bypassed and segment 2 severed. Every surviving node must still see
// every write, with both bypass and wrap hops counted.
func TestBypassPlusCut(t *testing.T) {
	k, n := newNet(t, 4)
	m := metrics.New()
	n.SetMetrics(m)
	n.FailNode(1)
	n.CutLink(2)
	k.Spawn("w0", func(p *sim.Proc) { n.NIC(0).WriteWord(p, 0, 0x11) })
	k.Spawn("w3", func(p *sim.Proc) { n.NIC(3).WriteWord(p, 4, 0x22) })
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	for _, i := range []int{0, 2, 3} {
		if n.NIC(i).Peek(0, 4)[0] != 0x11 {
			t.Errorf("node %d missed node 0's write under bypass+cut", i)
		}
		if n.NIC(i).Peek(4, 4)[0] != 0x22 {
			t.Errorf("node %d missed node 3's write under bypass+cut", i)
		}
	}
	if n.NIC(1).Peek(0, 4)[0] == 0x11 {
		t.Error("bypassed node applied a write")
	}
	if m.Counter("ring.bypass_hops", metrics.NodeGlobal).Value() == 0 {
		t.Error("no bypass hops counted")
	}
	if m.Counter("ring.wrap_hops", metrics.NodeGlobal).Value() == 0 {
		t.Error("no wrap hops counted")
	}
}

// TestSingleCutDeliveryProperty is the wrap-healing property: for any
// single severed segment, any writer set, and any write interleaving,
// every node's bank converges byte-identically — a single cut on a
// dual ring is invisible to the memory abstraction.
func TestSingleCutDeliveryProperty(t *testing.T) {
	prop := func(seed uint64) bool {
		return singleCutConverges(t, seed)
	}
	cfg := &quick.Config{
		MaxCount: 20,
		Rand:     rand.New(rand.NewSource(20260808)),
	}
	if err := quick.Check(prop, cfg); err != nil {
		t.Fatal(err)
	}
}

func singleCutConverges(t *testing.T, seed uint64) bool {
	const (
		nodes   = 5
		region  = 256
		horizon = 200 * sim.Microsecond
	)
	rng := sim.NewRNG(seed)
	seg := rng.Intn(nodes)
	cutAt := sim.Time(0).Add(rng.Duration(horizon))

	k, n := newNet(t, nodes)
	defer k.Close()
	k.At(cutAt, func() { n.CutLink(seg) })

	for w := 0; w < nodes; w++ {
		w := w
		base := w * region
		k.Spawn("writer", func(p *sim.Proc) {
			r := sim.NewRNG(seed ^ uint64(w)<<32)
			for i := 0; i < 16; i++ {
				p.Delay(r.Duration(horizon / 8))
				n.NIC(w).WriteWord(p, base+4*(i%(region/4)), uint32(r.Uint64()))
			}
		})
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	ref := n.NIC(0).Peek(0, nodes*region)
	for i := 1; i < nodes; i++ {
		if !bytes.Equal(n.NIC(i).Peek(0, nodes*region), ref) {
			t.Logf("seed %d: node %d diverged (seg %d cut at %v)", seed, i, seg, cutAt)
			return false
		}
	}
	for i := 0; i < nodes; i++ {
		if n.NIC(i).Stats().PacketsLost != 0 {
			t.Logf("seed %d: node %d lost packets under a single cut", seed, i)
			return false
		}
	}
	return true
}

package core

import (
	"bytes"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/liveness"
	"repro/internal/scramnet"
	"repro/internal/sim"
	"repro/internal/spin"
)

// streamWorld is world() with the streaming-allreduce extension on.
func streamWorld(t testing.TB, nodes int, mutate ...func(*Config)) (*sim.Kernel, *scramnet.Network, *System, []*Endpoint) {
	t.Helper()
	k := sim.NewKernel()
	ringCfg := scramnet.DefaultConfig(nodes)
	ringCfg.SingleWriterCheck = true
	net, err := scramnet.New(k, ringCfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.Stream.Enabled = true
	for _, m := range mutate {
		m(&cfg)
	}
	sys, err := New(net, cfg)
	if err != nil {
		t.Fatal(err)
	}
	eps := make([]*Endpoint, nodes)
	for i := range eps {
		if eps[i], err = sys.Attach(i); err != nil {
			t.Fatal(err)
		}
	}
	return k, net, sys, eps
}

// vecU32 packs 32-bit lanes little-endian.
func vecU32(vals ...uint32) []byte {
	out := make([]byte, 4*len(vals))
	for i, v := range vals {
		putWord(out[4*i:], v)
	}
	return out
}

// reduceRef folds op over every rank's lanes in software.
func reduceRef(op spin.RingOp, contribs [][]byte) []byte {
	acc := append([]byte(nil), contribs[0]...)
	for _, c := range contribs[1:] {
		for i := 0; i+4 <= len(acc); i += 4 {
			putWord(acc[i:], op.Combine(getWord(acc[i:]), getWord(c[i:])))
		}
	}
	return acc
}

func TestStreamAllreduceOps(t *testing.T) {
	for _, op := range []spin.RingOp{spin.OpSumU32, spin.OpMaxU32, spin.OpMinU32, spin.OpBOR, spin.OpBAND, spin.OpBXOR} {
		t.Run(op.String(), func(t *testing.T) {
			const nodes = 4
			k, net, _, eps := streamWorld(t, nodes)
			contribs := make([][]byte, nodes)
			for i := range contribs {
				contribs[i] = vecU32(uint32(i*7+3), uint32(i)<<uint(i), 0xdead0000|uint32(i), uint32(100-i))
			}
			want := reduceRef(op, contribs)
			results := make([][]byte, nodes)
			for i := 0; i < nodes; i++ {
				i := i
				k.Spawn(fmt.Sprintf("rank-%d", i), func(p *sim.Proc) {
					recv := make([]byte, len(contribs[i]))
					done, err := eps[i].StreamAllreduce(p, op, contribs[i], recv)
					if err != nil {
						t.Errorf("rank %d: %v", i, err)
						return
					}
					if !done {
						t.Errorf("rank %d: fast path declined", i)
						return
					}
					results[i] = recv
				})
			}
			if err := k.Run(); err != nil {
				t.Fatal(err)
			}
			for i, got := range results {
				if !bytes.Equal(got, want) {
					t.Errorf("rank %d: got %x want %x", i, got, want)
				}
			}
			// The reduction must actually have run in-network: every
			// node between origin 0 and the strip point rewrote vector
			// packets and charged cycles.
			for i := 1; i < nodes; i++ {
				st := net.NIC(i).HandlerStats()
				if st.PacketsRewritten == 0 || st.HandlerCycles == 0 {
					t.Errorf("node %d: no in-network work recorded: %+v", i, st)
				}
			}
		})
	}
}

func TestStreamAllreduceRepeatedRounds(t *testing.T) {
	const nodes, rounds = 3, 5
	k, _, _, eps := streamWorld(t, nodes)
	for i := 0; i < nodes; i++ {
		i := i
		k.Spawn(fmt.Sprintf("rank-%d", i), func(p *sim.Proc) {
			for r := 0; r < rounds; r++ {
				send := vecU32(uint32(i+1), uint32(r+1))
				recv := make([]byte, len(send))
				done, err := eps[i].StreamAllreduce(p, spin.OpSumU32, send, recv)
				if err != nil || !done {
					t.Errorf("rank %d round %d: done=%v err=%v", i, r, done, err)
					return
				}
				if got, want := getWord(recv), uint32(1+2+3); got != want {
					t.Errorf("rank %d round %d: lane0 %d want %d", i, r, got, want)
				}
				if got, want := getWord(recv[4:]), uint32(nodes*(r+1)); got != want {
					t.Errorf("rank %d round %d: lane1 %d want %d", i, r, got, want)
				}
			}
			if st := eps[i].Stats(); st.StreamRounds != rounds || st.StreamFallbacks != 0 {
				t.Errorf("rank %d: stats %+v", i, eps[i].Stats())
			}
		})
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}

// TestStreamAllreduceDeclines checks the rank-uniform gating predicates.
func TestStreamAllreduceDeclines(t *testing.T) {
	k, _, sys, eps := streamWorld(t, 2)
	k.Spawn("gates", func(p *sim.Proc) {
		big := make([]byte, sys.lay.strMax+4)
		cases := []struct {
			name       string
			op         spin.RingOp
			send, recv []byte
		}{
			{"bad-op", spin.OpNone, vecU32(1), make([]byte, 4)},
			{"empty", spin.OpSumU32, nil, make([]byte, 4)},
			{"unaligned", spin.OpSumU32, []byte{1, 2, 3}, make([]byte, 4)},
			{"too-big", spin.OpSumU32, big, make([]byte, len(big))},
			{"short-recv", spin.OpSumU32, vecU32(1, 2), make([]byte, 4)},
		}
		for _, c := range cases {
			done, err := eps[0].StreamAllreduce(p, c.op, c.send, c.recv)
			if err != nil {
				t.Errorf("%s: unexpected error: %v", c.name, err)
			}
			if done {
				t.Errorf("%s: fast path accepted, want decline", c.name)
			}
		}
		if st := eps[0].Stats(); st.StreamRounds != 0 {
			t.Errorf("gating declines must not count as rounds: %+v", st)
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}

// TestStreamSuspectFallback: a node that dies before announcing makes
// rank 0 publish a fallback verdict once the detector suspects it, and
// every live rank degrades on the same round.
func TestStreamSuspectFallback(t *testing.T) {
	const nodes = 4
	k, net, _, eps := streamWorld(t, nodes, func(c *Config) {
		c.Liveness = liveness.DefaultConfig()
	})
	net.FailNode(3)
	verdicts := make([]bool, nodes-1)
	for i := 0; i < nodes-1; i++ {
		i := i
		k.Spawn(fmt.Sprintf("rank-%d", i), func(p *sim.Proc) {
			send := vecU32(uint32(i), 1)
			recv := make([]byte, len(send))
			done, err := eps[i].StreamAllreduce(p, spin.OpSumU32, send, recv)
			if err != nil {
				t.Errorf("rank %d: %v", i, err)
			}
			verdicts[i] = done
			if st := eps[i].Stats(); st.StreamFallbacks != 1 {
				t.Errorf("rank %d: want 1 fallback, stats %+v", i, eps[i].Stats())
			}
		})
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	for i, d := range verdicts {
		if d {
			t.Errorf("rank %d: fast path claimed success with a dead member", i)
		}
	}
}

// TestStreamLossFallback: with the ring dropping every injected packet
// mid-round, the mask never fills and rank 0 publishes a fallback — but
// the done word must still reach the leaves, so the loss window has to
// close before the verdict write. The test drops exactly the vector
// packets by flipping the drop rate around rank 0's reduction writes
// via a kernel timer.
func TestStreamLossFallback(t *testing.T) {
	const nodes = 3
	k, net, _, eps := streamWorld(t, nodes, func(c *Config) {
		c.Liveness = liveness.DefaultConfig()
	})
	// Window chosen empirically: arrivals complete within ~20µs; the
	// header/vector/mask writes happen right after. Dropping injections
	// during [20µs, 60µs] kills the reduction packets; the mask
	// deadline then expires well after the window closes, so the
	// fallback verdict circulates cleanly.
	k.At(sim.Time(0).Add(20*sim.Microsecond), func() { net.SetDropRate(1) })
	k.At(sim.Time(0).Add(60*sim.Microsecond), func() { net.SetDropRate(0) })
	for i := 0; i < nodes; i++ {
		i := i
		k.Spawn(fmt.Sprintf("rank-%d", i), func(p *sim.Proc) {
			send := vecU32(uint32(i + 1))
			recv := make([]byte, len(send))
			done, err := eps[i].StreamAllreduce(p, spin.OpSumU32, send, recv)
			if err != nil {
				t.Errorf("rank %d: %v", i, err)
				return
			}
			if done {
				// Permissible only if the loss window missed the round
				// entirely — then the result must be right.
				if got, want := getWord(recv), uint32(1+2+3); got != want {
					t.Errorf("rank %d: claimed success with lanes %d want %d", i, got, want)
				}
				return
			}
			// Degraded round: a second, loss-free round must succeed.
			done2, err := eps[i].StreamAllreduce(p, spin.OpSumU32, send, recv)
			if err != nil || !done2 {
				t.Errorf("rank %d: recovery round done=%v err=%v", i, done2, err)
			}
		})
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}

// TestStreamDeterminism runs the same faulted scenario twice — a node
// dying mid-transit with a reduction in flight — and requires
// byte-identical results and identical spin.* counters.
func TestStreamDeterminism(t *testing.T) {
	type outcome struct {
		Done    []bool
		Err     []string
		Results [][]byte
		Spin    []spin.Stats
		Stream  []Stats
	}
	run := func() outcome {
		const nodes = 4
		k, net, _, eps := streamWorld(t, nodes, func(c *Config) {
			c.Liveness = liveness.DefaultConfig()
		})
		// Node 2 dies 25µs in: after announcing arrival (a few µs) but
		// around the reduction's transit, so some rounds see its
		// handler work and later rounds see the detector's verdict.
		k.At(sim.Time(0).Add(25*sim.Microsecond), func() { net.FailNode(2) })
		o := outcome{
			Done:    make([]bool, nodes),
			Err:     make([]string, nodes),
			Results: make([][]byte, nodes),
			Spin:    make([]spin.Stats, nodes),
			Stream:  make([]Stats, nodes),
		}
		for i := 0; i < nodes; i++ {
			if i == 2 {
				continue // the dying rank never participates
			}
			i := i
			k.Spawn(fmt.Sprintf("rank-%d", i), func(p *sim.Proc) {
				for r := 0; r < 3; r++ {
					send := vecU32(uint32(i+1), uint32(r))
					recv := make([]byte, len(send))
					done, err := eps[i].StreamAllreduce(p, spin.OpSumU32, send, recv)
					o.Done[i] = done
					if err != nil {
						o.Err[i] = err.Error()
					}
					o.Results[i] = append(o.Results[i], recv...)
				}
			})
		}
		if err := k.Run(); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < nodes; i++ {
			o.Spin[i] = net.NIC(i).HandlerStats()
			o.Stream[i] = eps[i].Stats()
		}
		return o
	}
	a, b := run(), run()
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("non-deterministic stream execution:\nrun1: %+v\nrun2: %+v", a, b)
	}
}

// TestStreamWideRing: the combining counter lifts the old 24-rank
// completion-bitmask cap — a 28-rank ring (wider than any single mask
// word could cover) must run a full in-network round on the fast path,
// with every transit's increment accumulating in the single counter
// word. This is the regression test for the counter conversion: before
// it, core.New rejected Stream past 24 ranks outright.
func TestStreamWideRing(t *testing.T) {
	const nodes = 28
	k, _, _, eps := streamWorld(t, nodes)
	contribs := make([][]byte, nodes)
	for i := range contribs {
		contribs[i] = vecU32(uint32(i + 1))
	}
	want := reduceRef(spin.OpSumU32, contribs)
	fastAll := true
	for i := 0; i < nodes; i++ {
		i := i
		k.Spawn(fmt.Sprintf("rank-%d", i), func(p *sim.Proc) {
			recv := make([]byte, 4)
			done, err := eps[i].StreamAllreduce(p, spin.OpSumU32, contribs[i], recv)
			if err != nil {
				t.Errorf("rank %d: %v", i, err)
				return
			}
			if !done {
				fastAll = false
				return
			}
			if !bytes.Equal(recv, want) {
				t.Errorf("rank %d: got %x want %x", i, recv, want)
			}
		})
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if !fastAll {
		t.Fatalf("fast path declined on a %d-rank ring", nodes)
	}
}

// TestStreamTrapFallback is the regression test for handler state
// leaking across a budget-overrun trap: with a budget too small for the
// vector combine, every transit's work is rolled back — the round must
// degrade to a fallback verdict on every rank. The old bug let a
// trapped transit keep its combined-byte count, set its completion bit
// anyway, and rank 0 published a vector missing every contribution as
// done=true.
func TestStreamTrapFallback(t *testing.T) {
	const nodes = 3
	k := sim.NewKernel()
	scfg := scramnet.DefaultConfig(nodes)
	// Variable packets carry the whole 64-byte vector in one packet,
	// whose combine costs 1+16 cycles — over the 10-cycle budget. The
	// header and mask words (2 cycles each) still fit.
	scfg.Mode = scramnet.VariablePackets
	scfg.HandlerBudget = 10
	scfg.SingleWriterCheck = true
	net, err := scramnet.New(k, scfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.Stream.Enabled = true
	sys, err := New(net, cfg)
	if err != nil {
		t.Fatal(err)
	}
	eps := make([]*Endpoint, nodes)
	for i := range eps {
		if eps[i], err = sys.Attach(i); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < nodes; i++ {
		i := i
		k.Spawn(fmt.Sprintf("rank-%d", i), func(p *sim.Proc) {
			send := make([]byte, 64)
			for w := 0; w < len(send); w += 4 {
				putWord(send[w:], uint32(100*i+w))
			}
			recv := make([]byte, len(send))
			done, err := eps[i].StreamAllreduce(p, spin.OpSumU32, send, recv)
			if err != nil {
				t.Errorf("rank %d: %v", i, err)
			}
			if done {
				t.Errorf("rank %d: trapped round published as done=true", i)
			}
			if st := eps[i].Stats(); st.StreamFallbacks != 1 {
				t.Errorf("rank %d: stats %+v", i, st)
			}
		})
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	var traps int64
	for i := 0; i < nodes; i++ {
		traps += net.NIC(i).HandlerStats().TrapsToHost
	}
	if traps == 0 {
		t.Error("no transit trapped — the test exercised nothing")
	}
}

// TestStreamConfigValidation covers the construction-time Stream
// checks: the in-network handlers need a flat ring, because a
// hierarchy bridge re-injects packets with a new origin and would
// re-run them.
func TestStreamConfigValidation(t *testing.T) {
	k := sim.NewKernel()
	defer k.Close()
	ring, err := scramnet.New(k, scramnet.DefaultConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	hier, err := scramnet.NewHierarchy(k, scramnet.DefaultHierarchyConfig(2, 2))
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name   string
		net    RingNetwork
		stream bool
		ok     bool
	}{
		{"stream on flat ring", ring, true, true},
		{"stream off on hierarchy", hier, false, true},
		{"stream on hierarchy", hier, true, false},
	}
	for _, c := range cases {
		cfg := DefaultConfig()
		cfg.Stream.Enabled = c.stream
		_, err := New(c.net, cfg)
		if (err == nil) != c.ok {
			t.Errorf("%s: New() = %v, want ok=%v", c.name, err, c.ok)
		}
		if !c.ok && err != nil && !strings.Contains(err.Error(), "flat ring") {
			t.Errorf("%s: error %q does not name the flat-ring rule", c.name, err)
		}
	}
}

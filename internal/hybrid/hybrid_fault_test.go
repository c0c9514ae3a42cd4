package hybrid_test

import (
	"bytes"
	"errors"
	"testing"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/hybrid"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/xport"
	"repro/internal/xport/oracle"
)

// stubEndpoint is a controllable in-memory substrate for exercising the
// router's fault paths without a network. Deliveries are a simple FIFO
// per source; sendErr makes Send fail, recvErr makes TryRecv and TryTake
// fail, and a pushed frame shorter than the router's header is a runt.
type stubEndpoint struct {
	rank, procs int
	max         int
	queues      map[int][][]byte
	sendErr     error
	recvErr     error
	delivered   [][]byte // what Send accepted, in order
	// bufs is the free list the last TryTake took from and taken every
	// buffer TryTake handed out, in order.
	bufs  *xport.Buffers
	taken [][]byte
}

func newStub(rank, procs, max int) *stubEndpoint {
	return &stubEndpoint{rank: rank, procs: procs, max: max, queues: map[int][][]byte{}}
}

func (s *stubEndpoint) Rank() int         { return s.rank }
func (s *stubEndpoint) Procs() int        { return s.procs }
func (s *stubEndpoint) MaxMessage() int   { return s.max }
func (s *stubEndpoint) NativeMcast() bool { return false }

func (s *stubEndpoint) Send(p *sim.Proc, dst int, data []byte) error {
	if s.sendErr != nil {
		return s.sendErr
	}
	if len(data) > s.max {
		return errors.New("stub: too large")
	}
	s.delivered = append(s.delivered, append([]byte(nil), data...))
	return nil
}

func (s *stubEndpoint) Mcast(p *sim.Proc, dsts []int, data []byte) error {
	for _, d := range dsts {
		if err := s.Send(p, d, data); err != nil {
			return err
		}
	}
	return nil
}

// push queues a raw frame for TryRecv(src) to return.
func (s *stubEndpoint) push(src int, frame []byte) {
	s.queues[src] = append(s.queues[src], append([]byte(nil), frame...))
}

func (s *stubEndpoint) TryRecv(p *sim.Proc, src int, buf []byte) (int, bool, error) {
	if s.recvErr != nil {
		return 0, false, s.recvErr
	}
	q := s.queues[src]
	if len(q) == 0 {
		return 0, false, nil
	}
	s.queues[src] = q[1:]
	return copy(buf, q[0]), true, nil
}

// TryTake is TryRecv into a buffer from bufs sized to the frame
// (xport.Taker).
func (s *stubEndpoint) TryTake(p *sim.Proc, src int, bufs *xport.Buffers) ([]byte, bool, error) {
	if s.recvErr != nil {
		return nil, false, s.recvErr
	}
	q := s.queues[src]
	if len(q) == 0 {
		return nil, false, nil
	}
	s.queues[src] = q[1:]
	msg := bufs.Get(len(q[0]))
	copy(msg, q[0])
	s.bufs = bufs
	s.taken = append(s.taken, msg)
	return msg, true, nil
}

// Probe returns a step that costs nothing and lands seen at once, so
// that the process takes every probe (xport.Prober).
func (s *stubEndpoint) Probe(land func(seen bool)) xport.Probe { return stubProbe{s, land} }

type stubProbe struct {
	s    *stubEndpoint
	land func(seen bool)
}

func (pr stubProbe) Issue(p *sim.Proc, src int) { pr.land(true) }

func (pr stubProbe) Take(p *sim.Proc, src int, bufs *xport.Buffers) ([]byte, bool, error) {
	return pr.s.TryTake(p, src, bufs)
}

// returnedAll fails t unless every buffer s's TryTake handed out is
// back on the router's free list. It empties the list to look.
func returnedAll(t *testing.T, s *stubEndpoint) {
	t.Helper()
	free := map[*byte]bool{}
	for {
		b := s.bufs.Get(0)
		if cap(b) == 0 {
			break
		}
		free[&b[:1][0]] = true
	}
	for i, b := range s.taken {
		if !free[&b[:1][0]] {
			t.Errorf("taken buffer %d (%d bytes) is not back on the free list", i, len(b))
		}
	}
}

func (s *stubEndpoint) Recv(p *sim.Proc, src int, buf []byte) (int, error) {
	n, ok, err := s.TryRecv(p, src, buf)
	if err != nil || !ok {
		return 0, errors.New("stub: nothing queued")
	}
	return n, nil
}

func (s *stubEndpoint) RecvAny(p *sim.Proc, buf []byte) (int, int, error) {
	return 0, 0, errors.New("stub: RecvAny unsupported")
}

var (
	_ xport.Endpoint = (*stubEndpoint)(nil)
	_ xport.Taker    = (*stubEndpoint)(nil)
	_ xport.Prober   = (*stubEndpoint)(nil)
)

// seqFrame builds a routed frame: 4-byte little-endian sequence header
// plus payload, matching the router's wire format.
func seqFrame(seq uint32, payload []byte) []byte {
	f := []byte{byte(seq), byte(seq >> 8), byte(seq >> 16), byte(seq >> 24)}
	return append(f, payload...)
}

func stubPair(t *testing.T) (*stubEndpoint, *stubEndpoint, *hybrid.Endpoint) {
	t.Helper()
	low := newStub(0, 2, 4096)
	high := newStub(0, 2, 64<<10)
	ep, err := hybrid.New(low, high, hybrid.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	return low, high, ep
}

func TestSendFailoverToAlternateSubstrate(t *testing.T) {
	k := sim.NewKernel()
	defer k.Close()
	low, high, ep := stubPair(t)
	m := metrics.New()
	ep.SetMetrics(m)

	// Small message with the low road refusing: must cross on high.
	low.sendErr = errors.New("stub: low road down")
	k.Spawn("tx", func(p *sim.Proc) {
		if err := ep.Send(p, 1, []byte("small")); err != nil {
			t.Errorf("failover send: %v", err)
		}
		// Large message with the high road refusing: it no longer fits
		// the low road either (beyond its MaxMessage), so the original
		// error must surface.
		low.sendErr = nil
		high.sendErr = errors.New("stub: high road down")
		if err := ep.Send(p, 1, make([]byte, 16<<10)); err == nil {
			t.Error("oversized failover did not surface the error")
		}
		// Large-but-fitting message fails over high -> low.
		if err := ep.Send(p, 1, make([]byte, 2000)); err != nil {
			t.Errorf("failover to low: %v", err)
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if len(high.delivered) != 1 || len(low.delivered) != 1 {
		t.Fatalf("deliveries: high=%d low=%d", len(high.delivered), len(low.delivered))
	}
	st := ep.Stats()
	if st.Failovers != 2 {
		t.Fatalf("Failovers = %d, want 2", st.Failovers)
	}
	// The hybrid.* counters read the Stats fields they are bound to.
	snap := m.Snapshot()
	for _, b := range []struct {
		name string
		stat int64
	}{
		{"hybrid.failovers", st.Failovers},
		{"hybrid.proactive_failovers", st.ProactiveFailovers},
		{"hybrid.sub_errors", st.SubErrors},
		{"hybrid.duplicates", st.Duplicates},
	} {
		if got, ok := snap.Counter(b.name, ep.Rank()); !ok || got != b.stat {
			t.Errorf("%s = %d (present %v), Stats = %d", b.name, got, ok, b.stat)
		}
	}
}

func TestResequencerDiscardsDuplicates(t *testing.T) {
	k := sim.NewKernel()
	defer k.Close()
	low, _, ep := stubPair(t)

	low.push(1, seqFrame(0, []byte("a")))
	low.push(1, seqFrame(0, []byte("a"))) // retransmitted duplicate
	low.push(1, seqFrame(1, []byte("b")))
	var got []string
	k.Spawn("rx", func(p *sim.Proc) {
		buf := make([]byte, 16)
		for i := 0; i < 2; i++ {
			n, err := ep.Recv(p, 1, buf)
			if err != nil {
				t.Errorf("recv %d: %v", i, err)
				return
			}
			got = append(got, string(buf[:n]))
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0] != "a" || got[1] != "b" {
		t.Fatalf("released %v", got)
	}
	if ep.Stats().Duplicates != 1 {
		t.Fatalf("Duplicates = %d, want 1", ep.Stats().Duplicates)
	}
	if len(low.taken) != 3 {
		t.Fatalf("the router took %d frames, want 3", len(low.taken))
	}
	returnedAll(t, low)
}

func TestPollToleratesSubstrateErrorsAndRunts(t *testing.T) {
	k := sim.NewKernel()
	defer k.Close()
	low, high, ep := stubPair(t)

	// The high road errors on every poll and the low road delivers a
	// runt between two messages; the stream must still heal around
	// both. The runt's buffer goes back to the free list, where the
	// message after it, no longer than the one before, finds it.
	high.recvErr = errors.New("stub: receive fault")
	low.push(1, seqFrame(0, []byte("ok")))
	low.push(1, []byte{1, 2}) // shorter than the 4-byte header
	low.push(1, seqFrame(1, []byte("ok")))
	var got []string
	k.Spawn("rx", func(p *sim.Proc) {
		buf := make([]byte, 16)
		for i := 0; i < 2; i++ {
			n, err := ep.Recv(p, 1, buf)
			if err != nil {
				t.Errorf("recv %d: %v", i, err)
				return
			}
			got = append(got, string(buf[:n]))
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0] != "ok" || got[1] != "ok" {
		t.Fatalf("got %q", got)
	}
	st := ep.Stats()
	if st.SubErrors < 2 {
		t.Fatalf("SubErrors = %d, want >= 2 (faulted polls + runt)", st.SubErrors)
	}
	if len(low.taken) != 3 {
		t.Fatalf("the router took %d frames, want 3", len(low.taken))
	}
	returnedAll(t, low)
}

// TestHybridUnderFaultScript drives a full hybrid cluster — retry-
// enabled BBP below, fault-wrapped Myrinet above — through a transient
// loss window and checks the oracle contract on the small-message
// (BBP) road, which is the one with a recovery layer.
func TestHybridUnderFaultScript(t *testing.T) {
	script := &fault.Script{Seed: 4242, Actions: []fault.Action{
		{At: sim.Time(0).Add(100 * sim.Microsecond), Kind: fault.LossStart, Rate: 0.1},
		{At: sim.Time(0).Add(400 * sim.Microsecond), Kind: fault.LossStop},
	}}
	k := sim.NewKernel()
	bbp := core.DefaultConfig()
	bbp.Retry = core.DefaultRetryConfig()
	c, err := cluster.New(k, cluster.Options{Nodes: 4, Net: cluster.Hybrid, BBP: &bbp, Faults: script})
	if err != nil {
		t.Fatal(err)
	}
	o := oracle.New()
	eps := make([]xport.Endpoint, len(c.Endpoints))
	for i, ep := range c.Endpoints {
		eps[i] = o.Wrap(ep)
	}
	const msgs = 20
	k.Spawn("tx", func(p *sim.Proc) {
		for i := 0; i < msgs; i++ {
			payload := bytes.Repeat([]byte{byte(i + 1)}, 40) // small: BBP road
			if err := eps[0].Send(p, 1, payload); err != nil {
				t.Errorf("send %d: %v", i, err)
				return
			}
			p.Delay(30 * sim.Microsecond)
		}
	})
	k.Spawn("rx", func(p *sim.Proc) {
		buf := make([]byte, 128)
		for i := 0; i < msgs; i++ {
			if _, err := eps[1].Recv(p, 0, buf); err != nil {
				t.Errorf("recv %d: %v", i, err)
				return
			}
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if st, err := o.Check(true); err != nil {
		t.Fatalf("oracle: %v (%v)", err, st)
	}
}

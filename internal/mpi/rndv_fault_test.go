package mpi_test

// Fault battery for the receiver-posted-window rendezvous: loss
// windows corrupting window data (repaired by the kRDone checksum /
// kRNak rewrite loop), senders and receivers confirmed dead
// mid-transfer (the survivor gets a DeadPeerError and the posted
// window is reclaimed, never pinned), a flapping receiver (bypass
// windows shorter than the detector's confirmation window), and a
// testing/quick property over generated loss scripts asserting
// exactly-once delivery.

import (
	"bytes"
	"errors"
	"testing"
	"testing/quick"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/liveness"
	"repro/internal/mpi"
	"repro/internal/sim"
	"repro/internal/xport"
)

func faultAt(d sim.Duration) sim.Time { return sim.Time(0).Add(d) }

// windowedWorld builds an n-node SCRAMNet cluster with the BBP retry
// extension (reliable control under loss), the failure detector, the
// paper's PIO-only billboard thresholds, and an MPI world with the
// zero-copy rendezvous enabled.
func windowedWorld(t testing.TB, k *sim.Kernel, n int, script *fault.Script) (*cluster.Cluster, *mpi.World) {
	t.Helper()
	return windowedWorldTimeout(t, k, n, script, 400*sim.Millisecond)
}

// windowedWorldTimeout is windowedWorld with an explicit wait timeout,
// for the abandonment tests that need waits expiring mid-handshake
// while every peer stays alive.
func windowedWorldTimeout(t testing.TB, k *sim.Kernel, n int, script *fault.Script, wt sim.Duration) (*cluster.Cluster, *mpi.World) {
	t.Helper()
	bbp := core.DefaultConfig()
	bbp.Retry = core.DefaultRetryConfig()
	lcfg := liveness.DefaultConfig()
	c, err := cluster.New(k, cluster.Options{
		Nodes: n, Net: cluster.SCRAMNet, BBP: &bbp, PIOOnlyBBP: true, Faults: script, Liveness: &lcfg,
	})
	if err != nil {
		t.Fatal(err)
	}
	mcfg := mpi.DefaultConfig()
	mcfg.RndvZeroCopy = true
	mcfg.WaitTimeout = wt
	return c, mpi.NewWorld(c.Endpoints, mcfg)
}

// recvEventually re-posts a receive across wait timeouts (each attempt
// progresses the engine, delivering any late protocol traffic) until
// the message lands or the attempt budget is spent.
func recvEventually(p *sim.Proc, cm *mpi.Comm, src, tag int, buf []byte, tries int) (mpi.Status, error) {
	var st mpi.Status
	var err error
	for i := 0; i < tries; i++ {
		st, err = cm.Recv(p, src, tag, buf)
		if !errors.Is(err, mpi.ErrTimeout) {
			break
		}
	}
	return st, err
}

func rndvPayload(seed uint64, n int) []byte {
	b := make([]byte, n)
	sim.NewRNG(seed).Bytes(b)
	return b
}

// TestWindowedRendezvousUnderLossWindow opens a 25% packet-loss window
// across the start of a 64 KiB windowed transfer. Window writes carry
// no per-chunk recovery, so the loss corrupts the receiver's replica
// of the window; the kRDone checksum must catch it and the kRNak
// rewrite must deliver the payload bit-exact, exactly once.
func TestWindowedRendezvousUnderLossWindow(t *testing.T) {
	const size = 64 << 10
	script := &fault.Script{Seed: 77, Actions: []fault.Action{
		{At: faultAt(100 * sim.Microsecond), Kind: fault.LossStart, Rate: 0.25},
		{At: faultAt(2 * sim.Millisecond), Kind: fault.LossStop},
	}}
	k := sim.NewKernel()
	defer k.Close()
	_, w := windowedWorld(t, k, 4, script)
	want := rndvPayload(0x1055, size)
	w.RunSPMD(k, func(p *sim.Proc, cm *mpi.Comm) {
		switch cm.Rank() {
		case 0:
			if err := cm.Send(p, 1, 3, want); err != nil {
				t.Errorf("send under loss: %v", err)
			}
		case 1:
			buf := make([]byte, size)
			st, err := cm.Recv(p, 0, 3, buf)
			if err != nil || st.Len != size {
				t.Errorf("recv under loss: %+v %v", st, err)
				return
			}
			if !bytes.Equal(buf, want) {
				t.Error("payload corrupted despite checksum repair")
			}
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	s0, s1 := w.Engine(0).Stats(), w.Engine(1).Stats()
	if s0.RndvZeroCopy != 1 {
		t.Errorf("RndvZeroCopy = %d, want 1 (windowed path not taken)", s0.RndvZeroCopy)
	}
	if s1.Received != 1 {
		t.Errorf("Received = %d, want exactly-once", s1.Received)
	}
	base := int64((size + (16 << 10) - 1) / (16 << 10))
	if s0.ChunksSent <= base {
		t.Errorf("ChunksSent = %d, want > %d (kRNak rewrite never exercised)", s0.ChunksSent, base)
	}
}

// TestWindowedRendezvousSenderDiesMidTransfer kills the sender while
// it is filling the receiver's posted window. The receiver must get a
// DeadPeerError within the detector's window, the posted window must
// be reclaimed (proved by reserving most of the partition right
// afterwards), and a subsequent transfer from a live peer must still
// go zero-copy.
func TestWindowedRendezvousSenderDiesMidTransfer(t *testing.T) {
	const (
		victim = 1
		size   = 256 << 10
	)
	script := &fault.Script{Seed: 9, Actions: []fault.Action{
		{At: faultAt(5 * sim.Millisecond), Kind: fault.NodeFail, Node: victim},
	}}
	k := sim.NewKernel()
	defer k.Close()
	c, w := windowedWorld(t, k, 4, script)
	follow := rndvPayload(0xf0110, 64<<10)
	w.RunSPMD(k, func(p *sim.Proc, cm *mpi.Comm) {
		switch cm.Rank() {
		case 0:
			buf := make([]byte, size)
			_, err := cm.Recv(p, victim, 4, buf)
			var dpe *mpi.DeadPeerError
			if !errors.As(err, &dpe) || dpe.Rank != victim {
				t.Errorf("recv from dying sender: %v, want DeadPeerError{%d}", err, victim)
				return
			}
			// The abandoned transfer's window must be back in the free
			// pool: reserving 3/4 of the partition only works if the
			// 256 KiB window was released.
			wnd := c.Endpoints[0].(xport.Windowed)
			n := c.Endpoints[0].MaxMessage() * 3 / 4
			off, ok := wnd.ReserveWindow(p, 2, n)
			if !ok {
				t.Errorf("partition still pinned after abandoned transfer")
				return
			}
			wnd.ReleaseWindow(off, n)
			// A live peer can still run the zero-copy path end to end.
			got := make([]byte, len(follow))
			st, err := cm.Recv(p, 2, 5, got)
			if err != nil || st.Len != len(follow) || !bytes.Equal(got, follow) {
				t.Errorf("follow-up transfer: %+v %v", st, err)
			}
		case victim:
			// Dies mid-write; the engine must surface an error rather
			// than panic, and the machine is gone either way.
			if err := cm.Send(p, 0, 4, make([]byte, size)); err == nil {
				t.Errorf("dying sender's Send reported success")
			}
		case 2:
			p.Delay(20 * sim.Millisecond)
			if err := cm.Send(p, 0, 5, follow); err != nil {
				t.Errorf("live sender after death: %v", err)
			}
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if got := w.Engine(2).Stats().RndvZeroCopy; got != 1 {
		t.Errorf("follow-up RndvZeroCopy = %d, want 1 (window leak forced fallback?)", got)
	}
}

// TestWindowedRendezvousReceiverDiesMidTransfer is the mirror image:
// the receiver posts the window, goes down mid-fill, and the sender —
// blocked waiting for the kRAck that will never come — must get a
// DeadPeerError and stay fully usable for transfers to other ranks.
func TestWindowedRendezvousReceiverDiesMidTransfer(t *testing.T) {
	const (
		victim = 1
		size   = 256 << 10
	)
	script := &fault.Script{Seed: 13, Actions: []fault.Action{
		{At: faultAt(5 * sim.Millisecond), Kind: fault.NodeFail, Node: victim},
	}}
	k := sim.NewKernel()
	defer k.Close()
	_, w := windowedWorld(t, k, 4, script)
	follow := rndvPayload(0xdead2, 64<<10)
	w.RunSPMD(k, func(p *sim.Proc, cm *mpi.Comm) {
		switch cm.Rank() {
		case 0:
			err := cm.Send(p, victim, 6, make([]byte, size))
			var dpe *mpi.DeadPeerError
			if !errors.As(err, &dpe) || dpe.Rank != victim {
				t.Errorf("send to dying receiver: %v, want DeadPeerError{%d}", err, victim)
				return
			}
			if err := cm.Send(p, 2, 7, follow); err != nil {
				t.Errorf("send to live rank after death: %v", err)
			}
		case victim:
			// Progress the handshake (match the RTS, post the window,
			// reply kCTSW) until the machine dies under the transfer.
			buf := make([]byte, size)
			req, err := cm.Irecv(p, 0, 6, buf)
			if err != nil {
				t.Errorf("victim Irecv: %v", err)
				return
			}
			for !req.Done() && p.Now() < faultAt(8*sim.Millisecond) {
				if _, _, err := cm.Test(p, req); err != nil {
					return // dead machines get no guarantees
				}
				p.Delay(20 * sim.Microsecond)
			}
		case 2:
			got := make([]byte, len(follow))
			st, err := cm.Recv(p, 0, 7, got)
			if err != nil || st.Len != len(follow) || !bytes.Equal(got, follow) {
				t.Errorf("follow-up transfer: %+v %v", st, err)
			}
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if got := w.Engine(0).Stats().RndvZeroCopy; got != 2 {
		t.Errorf("sender RndvZeroCopy = %d, want 2 (doomed + follow-up)", got)
	}
}

// TestWindowedRendezvousFlappingReceiver bounces the receiver through
// fail/repair cycles each shorter than the confirmation window, so
// nobody is ever declared dead but ring packets written during the
// bypass phases never reach the receiver's replica. The checksum loop
// must still converge to bit-exact exactly-once delivery.
func TestWindowedRendezvousFlappingReceiver(t *testing.T) {
	const size = 64 << 10
	// Down 500 µs, up 500 µs, four cycles across the transfer's fill.
	k := sim.NewKernel()
	defer k.Close()
	_, w := windowedWorld(t, k, 4, fault.Flap(1, sim.Millisecond, 4))
	want := rndvPayload(0xf1a9, size)
	w.RunSPMD(k, func(p *sim.Proc, cm *mpi.Comm) {
		switch cm.Rank() {
		case 0:
			if err := cm.Send(p, 1, 8, want); err != nil {
				t.Errorf("send to flapping receiver: %v", err)
			}
		case 1:
			buf := make([]byte, size)
			st, err := cm.Recv(p, 0, 8, buf)
			if err != nil || st.Len != size || !bytes.Equal(buf, want) {
				t.Errorf("flapping recv: %+v %v", st, err)
			}
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if got := w.Engine(1).Stats().Received; got != 1 {
		t.Errorf("Received = %d, want exactly-once through the flaps", got)
	}
	if got := w.Engine(0).Stats().RndvZeroCopy; got != 1 {
		t.Errorf("RndvZeroCopy = %d, want 1", got)
	}
}

// TestWindowedRendezvousLossProperty is the exactly-once property over
// generated loss-only fault scripts: whatever loss windows open, a
// windowed transfer followed by a second one (proving the window was
// recycled, not pinned) delivers both payloads bit-exact with
// Received counting each exactly once.
func TestWindowedRendezvousLossProperty(t *testing.T) {
	const size = 32 << 10
	prop := func(seed uint64) bool {
		script := fault.Generate(seed, fault.GenConfig{
			Horizon:     6 * sim.Millisecond,
			Nodes:       4,
			LossWindows: 2,
			MaxLossRate: 0.5,
		})
		k := sim.NewKernel()
		defer k.Close()
		_, w := windowedWorld(t, k, 4, script)
		ok := true
		w.RunSPMD(k, func(p *sim.Proc, cm *mpi.Comm) {
			for round := 0; round < 2; round++ {
				want := rndvPayload(seed<<8|uint64(round), size)
				switch cm.Rank() {
				case 0:
					if err := cm.Send(p, 1, round, want); err != nil {
						t.Errorf("seed %d round %d send: %v", seed, round, err)
						ok = false
						return
					}
				case 1:
					buf := make([]byte, size)
					st, err := cm.Recv(p, 0, round, buf)
					if err != nil || st.Len != size || !bytes.Equal(buf, want) {
						t.Errorf("seed %d round %d recv: %+v %v", seed, round, st, err)
						ok = false
						return
					}
				}
			}
		})
		if err := k.Run(); err != nil {
			t.Errorf("seed %d: %v", seed, err)
			return false
		}
		if got := w.Engine(1).Stats().Received; got != 2 {
			t.Errorf("seed %d: Received = %d, want 2", seed, got)
			ok = false
		}
		if got := w.Engine(0).Stats().RndvZeroCopy; got != 2 {
			t.Errorf("seed %d: RndvZeroCopy = %d, want 2", seed, got)
			ok = false
		}
		return ok
	}
	max := 5
	if testing.Short() {
		max = 2
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: max}); err != nil {
		t.Fatal(err)
	}
}

// TestWindowedRendezvousReceiverTimeoutLiveSenderReapsWindow times the
// receiver out mid-transfer while the sender — alive the whole time —
// is still filling the posted window. The abandoned window must NOT be
// released under the sender's in-flight stores (that would re-lend the
// words and trip the single-writer check); it is parked until the
// sender's late kRDone proves the fill over, at which point it is
// reclaimed without panicking the engine, without delivering the
// abandoned payload, and without pinning partition space.
func TestWindowedRendezvousReceiverTimeoutLiveSenderReapsWindow(t *testing.T) {
	const size = 256 << 10
	k := sim.NewKernel()
	defer k.Close()
	c, w := windowedWorldTimeout(t, k, 4, nil, 2*sim.Millisecond)
	follow := rndvPayload(0x2ea9, 1<<10)
	w.RunSPMD(k, func(p *sim.Proc, cm *mpi.Comm) {
		switch cm.Rank() {
		case 0:
			// Start late enough that the kCTSW beats the receiver's
			// deadline but the ~40 ms window fill does not.
			p.Delay(500 * sim.Microsecond)
			if err := cm.Send(p, 1, 10, make([]byte, size)); !errors.Is(err, mpi.ErrTimeout) {
				t.Errorf("slow send past an abandoned receiver: %v, want ErrTimeout", err)
			}
		case 1:
			buf := make([]byte, size)
			if _, err := cm.Recv(p, 0, 10, buf); !errors.Is(err, mpi.ErrTimeout) {
				t.Errorf("recv from slow sender: %v, want ErrTimeout", err)
				return
			}
			// Keep progressing until rank 2's message lands (~50 ms):
			// the sender's kRDone arrives meanwhile and must reap the
			// parked window instead of panicking on the unknown request.
			got := make([]byte, len(follow))
			st, err := recvEventually(p, cm, 2, 11, got, 60)
			if err != nil || st.Len != len(follow) || !bytes.Equal(got, follow) {
				t.Errorf("follow-up eager recv: %+v %v", st, err)
				return
			}
			// The zombie window must be back in the free pool.
			wnd := c.Endpoints[1].(xport.Windowed)
			n := c.Endpoints[1].MaxMessage() * 3 / 4
			off, ok := wnd.ReserveWindow(p, 0, n)
			if !ok {
				t.Errorf("partition still pinned after the late kRDone reap")
				return
			}
			wnd.ReleaseWindow(off, n)
		case 2:
			p.Delay(50 * sim.Millisecond)
			if err := cm.Send(p, 1, 11, follow); err != nil {
				t.Errorf("follow-up eager send: %v", err)
			}
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	// The abandoned payload must never count as delivered.
	if got := w.Engine(1).Stats().Received; got != 1 {
		t.Errorf("Received = %d, want 1 (follow-up only)", got)
	}
}

// TestWindowedRendezvousSenderTimeoutRejectsWindowGrant is the mirror
// abandonment: the sender gives up before the window grant arrives.
// Its kCTSW handler must not panic on the unknown request; it replies
// kRRej so the receiver — which posted a whole-payload window — can
// reclaim the span immediately instead of leaking it until peer death.
func TestWindowedRendezvousSenderTimeoutRejectsWindowGrant(t *testing.T) {
	const size = 256 << 10
	k := sim.NewKernel()
	defer k.Close()
	c, w := windowedWorldTimeout(t, k, 4, nil, 2*sim.Millisecond)
	follow := rndvPayload(0x2e1, 1<<10)
	w.RunSPMD(k, func(p *sim.Proc, cm *mpi.Comm) {
		switch cm.Rank() {
		case 0:
			// The receiver only posts its receive at 3 ms, past this
			// send's 2 ms deadline.
			if err := cm.Send(p, 1, 12, make([]byte, size)); !errors.Is(err, mpi.ErrTimeout) {
				t.Errorf("send to tardy receiver: %v, want ErrTimeout", err)
				return
			}
			// Keep progressing so the late kCTSW is answered with kRRej.
			got := make([]byte, len(follow))
			st, err := recvEventually(p, cm, 2, 13, got, 60)
			if err != nil || st.Len != len(follow) || !bytes.Equal(got, follow) {
				t.Errorf("follow-up eager recv: %+v %v", st, err)
			}
		case 1:
			p.Delay(3 * sim.Millisecond)
			buf := make([]byte, size)
			if _, err := cm.Recv(p, 0, 12, buf); !errors.Is(err, mpi.ErrTimeout) {
				t.Errorf("recv whose sender abandoned: %v, want ErrTimeout", err)
				return
			}
			// The rejected grant must have released the window already.
			wnd := c.Endpoints[1].(xport.Windowed)
			n := c.Endpoints[1].MaxMessage() * 3 / 4
			off, ok := wnd.ReserveWindow(p, 0, n)
			if !ok {
				t.Errorf("partition still pinned after kRRej")
				return
			}
			wnd.ReleaseWindow(off, n)
		case 2:
			p.Delay(8 * sim.Millisecond)
			if err := cm.Send(p, 0, 13, follow); err != nil {
				t.Errorf("follow-up eager send: %v", err)
			}
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}

// TestWindowedRendezvousPersistentLossFallsBackSequential holds a 35%
// loss rate across the first three window fills of a 64 KiB transfer
// (each fill takes ~14 ms; the window closes at 34 ms, inside the
// third). Every fill is torn — tens of thousands of unprotected window
// packets cannot all survive — so the kRNak rewrite loop must not
// cycle until the wait timeout: after maxWindowNaks consecutive
// mismatches the receiver hands the window back (kRFall) and the
// payload is delivered bit-exact through the sequential kRData path,
// which rides the billboard retry machinery (its 8 × 200 µs budget
// bridges the residual overlap with the loss window).
func TestWindowedRendezvousPersistentLossFallsBackSequential(t *testing.T) {
	const size = 64 << 10
	script := &fault.Script{Seed: 41, Actions: []fault.Action{
		{At: faultAt(100 * sim.Microsecond), Kind: fault.LossStart, Rate: 0.35},
		{At: faultAt(34 * sim.Millisecond), Kind: fault.LossStop},
	}}
	k := sim.NewKernel()
	defer k.Close()
	_, w := windowedWorld(t, k, 4, script)
	want := rndvPayload(0xfa11, size)
	w.RunSPMD(k, func(p *sim.Proc, cm *mpi.Comm) {
		switch cm.Rank() {
		case 0:
			if err := cm.Send(p, 1, 14, want); err != nil {
				t.Errorf("send under persistent loss: %v", err)
			}
		case 1:
			buf := make([]byte, size)
			st, err := cm.Recv(p, 0, 14, buf)
			if err != nil || st.Len != size {
				t.Errorf("recv under persistent loss: %+v %v", st, err)
				return
			}
			if !bytes.Equal(buf, want) {
				t.Error("payload corrupted through the sequential fallback")
			}
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	s0, s1 := w.Engine(0).Stats(), w.Engine(1).Stats()
	if s1.Received != 1 {
		t.Errorf("Received = %d, want exactly-once", s1.Received)
	}
	if s0.RndvZeroCopy != 1 {
		t.Errorf("RndvZeroCopy = %d, want 1 (the windowed path was attempted)", s0.RndvZeroCopy)
	}
	// Three torn window fills plus the sequential resend.
	base := int64((size + (16 << 10) - 1) / (16 << 10))
	if s0.ChunksSent < 4*base {
		t.Errorf("ChunksSent = %d, want >= %d (fallback after the nak budget)", s0.ChunksSent, 4*base)
	}
}

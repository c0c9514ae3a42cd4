package mpi_test

import (
	"testing"

	"repro/internal/cluster"
	"repro/internal/mpi"
	"repro/internal/sim"
)

func TestCartCoordsRankRoundtrip(t *testing.T) {
	run(t, cluster.SCRAMNet, 6, func(p *sim.Proc, c *mpi.Comm) {
		ct, err := mpi.CartCreate(c, []int{2, 3}, []bool{false, true})
		if err != nil {
			t.Error(err)
			return
		}
		for r := 0; r < 6; r++ {
			co := ct.Coords(r)
			back, ok := ct.Rank(co)
			if !ok || back != r {
				t.Errorf("rank %d -> %v -> %d (ok=%v)", r, co, back, ok)
			}
		}
		// Row-major: rank 4 = (1,1) on a 2x3 grid.
		co := ct.Coords(4)
		if co[0] != 1 || co[1] != 1 {
			t.Errorf("Coords(4) = %v", co)
		}
	})
}

func TestCartShiftPeriodicAndEdge(t *testing.T) {
	run(t, cluster.SCRAMNet, 6, func(p *sim.Proc, c *mpi.Comm) {
		ct, err := mpi.CartCreate(c, []int{2, 3}, []bool{false, true})
		if err != nil {
			t.Error(err)
			return
		}
		if c.Rank() == 0 { // coords (0,0)
			// Dim 0 is non-periodic: shifting up from row 0 has no source.
			src, dst := ct.Shift(0, 1)
			if src != mpi.ProcNull || dst != 3 {
				t.Errorf("dim0 shift: src=%d dst=%d", src, dst)
			}
			// Dim 1 is periodic: (0,-1) wraps to (0,2) = rank 2.
			src, dst = ct.Shift(1, 1)
			if src != 2 || dst != 1 {
				t.Errorf("dim1 shift: src=%d dst=%d", src, dst)
			}
		}
	})
}

func TestCartCreateValidation(t *testing.T) {
	run(t, cluster.SCRAMNet, 4, func(p *sim.Proc, c *mpi.Comm) {
		if _, err := mpi.CartCreate(c, []int{3, 2}, []bool{false, false}); err == nil {
			t.Error("6-cell grid accepted on 4 ranks")
		}
		if _, err := mpi.CartCreate(c, []int{2, 2}, []bool{false}); err == nil {
			t.Error("dims/periodic mismatch accepted")
		}
	})
}

func TestCartSendrecvShiftRing(t *testing.T) {
	// A periodic 1-D ring: everyone passes its rank to the right; each
	// receives its left neighbor's rank.
	run(t, cluster.SCRAMNet, 4, func(p *sim.Proc, c *mpi.Comm) {
		ct, err := mpi.CartCreate(c, []int{4}, []bool{true})
		if err != nil {
			t.Error(err)
			return
		}
		send := []byte{byte(c.Rank())}
		recv := make([]byte, 1)
		got, err := ct.SendrecvShift(p, 0, 1, 33, send, recv)
		if err != nil || !got {
			t.Errorf("shift exchange: got=%v err=%v", got, err)
			return
		}
		want := byte((c.Rank() + 3) % 4)
		if recv[0] != want {
			t.Errorf("rank %d received %d, want %d", c.Rank(), recv[0], want)
		}
	})
}

func TestCartSendrecvShiftNonPeriodicEdges(t *testing.T) {
	run(t, cluster.SCRAMNet, 3, func(p *sim.Proc, c *mpi.Comm) {
		ct, err := mpi.CartCreate(c, []int{3}, []bool{false})
		if err != nil {
			t.Error(err)
			return
		}
		send := []byte{byte(100 + c.Rank())}
		recv := make([]byte, 1)
		got, err := ct.SendrecvShift(p, 0, 1, 34, send, recv)
		if err != nil {
			t.Error(err)
			return
		}
		switch c.Rank() {
		case 0: // no left neighbor
			if got {
				t.Error("rank 0 should receive nothing")
			}
		default:
			if !got || recv[0] != byte(100+c.Rank()-1) {
				t.Errorf("rank %d: got=%v val=%d", c.Rank(), got, recv[0])
			}
		}
	})
}

func TestDirectADILowersLatency(t *testing.T) {
	lat := func(direct bool) float64 {
		k := sim.NewKernel()
		c, err := cluster.New(k, cluster.Options{Nodes: 4, Net: cluster.SCRAMNet, PIOOnlyBBP: true})
		if err != nil {
			t.Fatal(err)
		}
		cfg := mpi.DefaultConfig()
		cfg.DirectADI = direct
		w := mpi.NewWorld(c.Endpoints, cfg)
		var sent, recvd sim.Time
		w.RunSPMD(k, func(p *sim.Proc, cm *mpi.Comm) {
			if cm.Rank() == 0 {
				p.Delay(20 * sim.Microsecond)
				sent = p.Now()
				if err := cm.Send(p, 1, 0, []byte{1, 2, 3, 4}); err != nil {
					t.Error(err)
				}
			} else if cm.Rank() == 1 {
				buf := make([]byte, 8)
				if _, err := cm.Recv(p, 0, 0, buf); err != nil {
					t.Error(err)
				}
				recvd = p.Now()
			}
		})
		if err := k.Run(); err != nil {
			t.Fatal(err)
		}
		return recvd.Sub(sent).Microseconds()
	}
	layered, direct := lat(false), lat(true)
	if direct >= layered {
		t.Fatalf("direct ADI %.1fµs not below layered %.1fµs", direct, layered)
	}
	if layered-direct < 5 {
		t.Fatalf("direct ADI saves only %.1fµs; expected a visible win (paper §7)", layered-direct)
	}
}

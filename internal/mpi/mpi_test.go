package mpi_test

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"testing"
	"testing/quick"

	"repro/internal/cluster"
	"repro/internal/mpi"
	"repro/internal/sim"
)

// run builds a world on the given network and executes body on every
// rank to completion.
func run(t testing.TB, net cluster.Network, nodes int, body func(p *sim.Proc, c *mpi.Comm)) *mpi.World {
	t.Helper()
	k := sim.NewKernel()
	_, w, err := cluster.NewMPIWorld(k, net, nodes)
	if err != nil {
		t.Fatal(err)
	}
	w.RunSPMD(k, body)
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	return w
}

func TestSendRecvAllNetworks(t *testing.T) {
	for _, net := range cluster.Networks {
		net := net
		t.Run(string(net), func(t *testing.T) {
			msg := []byte("mpi over " + string(net))
			run(t, net, 2, func(p *sim.Proc, c *mpi.Comm) {
				switch c.Rank() {
				case 0:
					if err := c.Send(p, 1, 7, msg); err != nil {
						t.Error(err)
					}
				case 1:
					buf := make([]byte, 64)
					st, err := c.Recv(p, 0, 7, buf)
					if err != nil {
						t.Error(err)
						return
					}
					if st.Source != 0 || st.Tag != 7 || !bytes.Equal(buf[:st.Len], msg) {
						t.Errorf("status=%+v buf=%q", st, buf[:st.Len])
					}
				}
			})
		})
	}
}

func TestZeroByteMessage(t *testing.T) {
	run(t, cluster.SCRAMNet, 2, func(p *sim.Proc, c *mpi.Comm) {
		if c.Rank() == 0 {
			if err := c.Send(p, 1, 0, nil); err != nil {
				t.Error(err)
			}
		} else {
			st, err := c.Recv(p, 0, 0, nil)
			if err != nil || st.Len != 0 {
				t.Errorf("st=%+v err=%v", st, err)
			}
		}
	})
}

func TestTagMatchingAndOrdering(t *testing.T) {
	// Two messages with different tags, received in reverse tag order:
	// matching must pick by tag, not arrival order.
	run(t, cluster.SCRAMNet, 2, func(p *sim.Proc, c *mpi.Comm) {
		if c.Rank() == 0 {
			if err := c.Send(p, 1, 1, []byte{1}); err != nil {
				t.Error(err)
			}
			if err := c.Send(p, 1, 2, []byte{2}); err != nil {
				t.Error(err)
			}
		} else {
			buf := make([]byte, 4)
			p.Delay(500 * sim.Microsecond) // both arrive unexpected
			if st, err := c.Recv(p, 0, 2, buf); err != nil || buf[0] != 2 || st.Tag != 2 {
				t.Errorf("tag-2 recv: %+v %v %d", st, err, buf[0])
			}
			if st, err := c.Recv(p, 0, 1, buf); err != nil || buf[0] != 1 || st.Tag != 1 {
				t.Errorf("tag-1 recv: %+v %v %d", st, err, buf[0])
			}
		}
	})
}

func TestAnySourceAnyTag(t *testing.T) {
	run(t, cluster.SCRAMNet, 3, func(p *sim.Proc, c *mpi.Comm) {
		if c.Rank() == 0 {
			seen := map[int]bool{}
			buf := make([]byte, 4)
			for i := 0; i < 2; i++ {
				st, err := c.Recv(p, mpi.AnySource, mpi.AnyTag, buf)
				if err != nil {
					t.Error(err)
					return
				}
				if int(buf[0]) != st.Source || st.Tag != 40+st.Source {
					t.Errorf("status %+v payload %d", st, buf[0])
				}
				seen[st.Source] = true
			}
			if !seen[1] || !seen[2] {
				t.Errorf("sources: %v", seen)
			}
		} else {
			p.Delay(sim.Duration(c.Rank()) * 200 * sim.Microsecond)
			if err := c.Send(p, 0, 40+c.Rank(), []byte{byte(c.Rank())}); err != nil {
				t.Error(err)
			}
		}
	})
}

func TestNonOvertakingSameTag(t *testing.T) {
	const count = 30
	run(t, cluster.SCRAMNet, 2, func(p *sim.Proc, c *mpi.Comm) {
		if c.Rank() == 0 {
			for i := 0; i < count; i++ {
				if err := c.Send(p, 1, 5, []byte{byte(i)}); err != nil {
					t.Error(err)
					return
				}
			}
		} else {
			buf := make([]byte, 4)
			for i := 0; i < count; i++ {
				if _, err := c.Recv(p, 0, 5, buf); err != nil || int(buf[0]) != i {
					t.Errorf("recv %d got %d err=%v", i, buf[0], err)
					return
				}
			}
		}
	})
}

func TestRendezvousLargeMessage(t *testing.T) {
	const size = 100 << 10 // well above EagerMax
	payload := make([]byte, size)
	sim.NewRNG(5).Bytes(payload)
	w := run(t, cluster.FastEthernet, 2, func(p *sim.Proc, c *mpi.Comm) {
		if c.Rank() == 0 {
			if err := c.Send(p, 1, 9, payload); err != nil {
				t.Error(err)
			}
		} else {
			buf := make([]byte, size)
			p.Delay(1 * sim.Millisecond) // force the RTS to arrive unexpected
			st, err := c.Recv(p, 0, 9, buf)
			if err != nil || st.Len != size || !bytes.Equal(buf, payload) {
				t.Errorf("rendezvous: st=%+v err=%v equal=%v", st, err, bytes.Equal(buf, payload))
			}
		}
	})
	if w.Engine(0).Stats().RndvSent != 1 {
		t.Errorf("RndvSent = %d, want 1", w.Engine(0).Stats().RndvSent)
	}
}

func TestEagerUnexpectedBuffering(t *testing.T) {
	w := run(t, cluster.SCRAMNet, 2, func(p *sim.Proc, c *mpi.Comm) {
		if c.Rank() == 0 {
			if err := c.Send(p, 1, 3, []byte("early bird")); err != nil {
				t.Error(err)
			}
			if err := c.Send(p, 1, 4, []byte("late")); err != nil {
				t.Error(err)
			}
		} else {
			p.Delay(2 * sim.Millisecond)
			// Receiving tag 4 first stages the tag-3 message ahead of
			// it through the unexpected queue, and must not match it.
			buf := make([]byte, 32)
			st, err := c.Recv(p, 0, 4, buf)
			if err != nil || st.Tag != 4 || string(buf[:st.Len]) != "late" {
				t.Errorf("tag-4 recv: %+v %v %q", st, err, buf[:st.Len])
			}
			st, err = c.Recv(p, 0, 3, buf)
			if err != nil || st.Tag != 3 || string(buf[:st.Len]) != "early bird" {
				t.Errorf("late recv: %+v %v", st, err)
			}
		}
	})
	if w.Engine(1).Stats().UnexpectedMsgs == 0 {
		t.Error("message should have landed in the unexpected queue")
	}
}

func TestTruncationError(t *testing.T) {
	run(t, cluster.SCRAMNet, 2, func(p *sim.Proc, c *mpi.Comm) {
		if c.Rank() == 0 {
			if err := c.Send(p, 1, 1, make([]byte, 100)); err != nil {
				t.Error(err)
			}
		} else {
			_, err := c.Recv(p, 0, 1, make([]byte, 10))
			if err != mpi.ErrTruncated {
				t.Errorf("err = %v, want ErrTruncated", err)
			}
		}
	})
}

func TestIsendIrecvWaitTest(t *testing.T) {
	run(t, cluster.SCRAMNet, 2, func(p *sim.Proc, c *mpi.Comm) {
		if c.Rank() == 0 {
			req, err := c.Isend(p, 1, 11, []byte("async"))
			if err != nil {
				t.Error(err)
				return
			}
			if _, err := c.Wait(p, req); err != nil {
				t.Error(err)
			}
		} else {
			buf := make([]byte, 16)
			req, err := c.Irecv(p, 0, 11, buf)
			if err != nil {
				t.Error(err)
				return
			}
			for {
				done, st, err := c.Test(p, req)
				if err != nil {
					t.Error(err)
					return
				}
				if done {
					if string(buf[:st.Len]) != "async" {
						t.Errorf("got %q", buf[:st.Len])
					}
					return
				}
			}
		}
	})
}

func TestSendrecvExchange(t *testing.T) {
	run(t, cluster.SCRAMNet, 2, func(p *sim.Proc, c *mpi.Comm) {
		peer := 1 - c.Rank()
		out := []byte{byte(10 + c.Rank())}
		in := make([]byte, 1)
		st, err := c.Sendrecv(p, peer, 6, out, peer, 6, in)
		if err != nil || st.Len != 1 || in[0] != byte(10+peer) {
			t.Errorf("rank %d: st=%+v err=%v in=%d", c.Rank(), st, err, in[0])
		}
	})
}

func TestBcastBothImplsAllRoots(t *testing.T) {
	for _, impl := range []mpi.Algorithm{mpi.Tree, mpi.Mcast} {
		impl := impl
		t.Run(impl.String(), func(t *testing.T) {
			for root := 0; root < 4; root++ {
				root := root
				payload := make([]byte, 700)
				sim.NewRNG(uint64(root)).Bytes(payload)
				run(t, cluster.SCRAMNet, 4, func(p *sim.Proc, c *mpi.Comm) {
					buf := make([]byte, len(payload))
					if c.Rank() == root {
						copy(buf, payload)
					}
					if err := c.Bcast(p, root, buf, mpi.WithAlgorithm(impl)); err != nil {
						t.Error(err)
						return
					}
					if !bytes.Equal(buf, payload) {
						t.Errorf("rank %d root %d: payload mismatch", c.Rank(), root)
					}
				})
			}
		})
	}
}

func TestBcastMultiChunk(t *testing.T) {
	payload := make([]byte, 5000) // > CollChunk: multiple mcast messages
	sim.NewRNG(9).Bytes(payload)
	run(t, cluster.SCRAMNet, 4, func(p *sim.Proc, c *mpi.Comm) {
		buf := make([]byte, len(payload))
		if c.Rank() == 1 {
			copy(buf, payload)
		}
		if err := c.Bcast(p, 1, buf, mpi.WithAlgorithm(mpi.Mcast)); err != nil {
			t.Error(err)
			return
		}
		if !bytes.Equal(buf, payload) {
			t.Errorf("rank %d: mismatch", c.Rank())
		}
	})
}

func TestBarrierBothImplsSynchronize(t *testing.T) {
	for _, impl := range []mpi.Algorithm{mpi.Tree, mpi.Mcast} {
		impl := impl
		t.Run(impl.String(), func(t *testing.T) {
			k := sim.NewKernel()
			_, w, err := cluster.NewMPIWorld(k, cluster.SCRAMNet, 4)
			if err != nil {
				t.Fatal(err)
			}
			exits := make([]sim.Time, 4)
			var lastArrival sim.Time
			w.RunSPMD(k, func(p *sim.Proc, c *mpi.Comm) {
				// Staggered arrivals: nobody may exit before the last
				// process arrives.
				arrive := sim.Duration(c.Rank()) * 300 * sim.Microsecond
				p.Delay(arrive)
				if at := p.Now(); at > lastArrival {
					lastArrival = at
				}
				if err := c.Barrier(p, mpi.WithAlgorithm(impl)); err != nil {
					t.Error(err)
					return
				}
				exits[c.Rank()] = p.Now()
			})
			if err := k.Run(); err != nil {
				t.Fatal(err)
			}
			for r, exit := range exits {
				if exit < lastArrival {
					t.Errorf("rank %d exited the barrier at %d, before the last arrival %d", r, exit, lastArrival)
				}
			}
		})
	}
}

func TestBarrierRepeated(t *testing.T) {
	// Consecutive barriers must not cross-talk (sequence discipline).
	run(t, cluster.SCRAMNet, 4, func(p *sim.Proc, c *mpi.Comm) {
		for i := 0; i < 5; i++ {
			if err := c.Barrier(p, mpi.WithAlgorithm(mpi.Mcast)); err != nil {
				t.Errorf("barrier %d: %v", i, err)
				return
			}
		}
	})
}

func TestReduceAndAllreduce(t *testing.T) {
	const n = 8
	run(t, cluster.SCRAMNet, 4, func(p *sim.Proc, c *mpi.Comm) {
		send := make([]byte, 8*n)
		for i := 0; i < n; i++ {
			binary.LittleEndian.PutUint64(send[8*i:], math.Float64bits(float64(c.Rank()+i)))
		}
		recv := make([]byte, 8*n)
		if err := c.Allreduce(p, mpi.SumF64, send, recv); err != nil {
			t.Error(err)
			return
		}
		for i := 0; i < n; i++ {
			got := math.Float64frombits(binary.LittleEndian.Uint64(recv[8*i:]))
			want := float64(0+1+2+3) + 4*float64(i)
			if got != want {
				t.Errorf("rank %d elem %d: got %v want %v", c.Rank(), i, got, want)
			}
		}
	})
}

func TestReduceMaxToNonzeroRoot(t *testing.T) {
	run(t, cluster.SCRAMNet, 4, func(p *sim.Proc, c *mpi.Comm) {
		send := make([]byte, 8)
		binary.LittleEndian.PutUint64(send, math.Float64bits(float64(10*c.Rank())))
		recv := make([]byte, 8)
		if err := c.Reduce(p, 2, mpi.MaxF64, send, recv); err != nil {
			t.Error(err)
			return
		}
		if c.Rank() == 2 {
			if got := math.Float64frombits(binary.LittleEndian.Uint64(recv)); got != 30 {
				t.Errorf("max = %v, want 30", got)
			}
		}
	})
}

func TestMPILatencyCalibration(t *testing.T) {
	// Paper anchors: 0-byte MPI one-way 44 µs, 4-byte 49 µs over
	// SCRAMNet; the MPI layer adds ~constant overhead to the API layer.
	lat := func(n int) float64 {
		k := sim.NewKernel()
		_, w, err := cluster.NewMPIWorld(k, cluster.SCRAMNet, 4)
		if err != nil {
			t.Fatal(err)
		}
		var sent, recvd sim.Time
		w.RunSPMD(k, func(p *sim.Proc, c *mpi.Comm) {
			switch c.Rank() {
			case 0:
				p.Delay(20 * sim.Microsecond)
				sent = p.Now()
				if err := c.Send(p, 1, 0, make([]byte, n)); err != nil {
					t.Error(err)
				}
			case 1:
				buf := make([]byte, n+1)
				if _, err := c.Recv(p, 0, 0, buf); err != nil {
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
	l0, l4 := lat(0), lat(4)
	if l0 < 30 || l0 > 60 {
		t.Errorf("MPI 0-byte one-way %.1f µs, paper anchor 44 µs", l0)
	}
	if l4 <= l0 || l4 > 70 {
		t.Errorf("MPI 4-byte one-way %.1f µs (0-byte %.1f), paper anchor 49 µs", l4, l0)
	}
}

func TestPropertyRandomTrafficDeliveredExactlyOnce(t *testing.T) {
	// Property: random pairwise traffic with mixed tags and sizes is
	// delivered exactly once, in per-(src,tag) order, bit-exact.
	f := func(seed uint64) bool {
		const nodes = 3
		k := sim.NewKernel()
		_, w, err := cluster.NewMPIWorld(k, cluster.SCRAMNet, nodes)
		if err != nil {
			return false
		}
		rng := sim.NewRNG(seed)
		counts := [nodes][nodes]int{}
		for s := range counts {
			for r := range counts[s] {
				if s != r {
					counts[s][r] = rng.Intn(6)
				}
			}
		}
		payload := func(s, r, i int) []byte {
			n := int(sim.NewRNG(uint64(s*100+r*10+i)).Uint64()%300) + 1
			b := make([]byte, n)
			sim.NewRNG(uint64(s)<<32 | uint64(r)<<16 | uint64(i)).Bytes(b)
			return b
		}
		ok := true
		w.RunSPMD(k, func(p *sim.Proc, c *mpi.Comm) {
			me := c.Rank()
			// Send phase (interleaved with receive by staggering).
			for i := 0; i < 6; i++ {
				for r := 0; r < nodes; r++ {
					if r == me || i >= counts[me][r] {
						continue
					}
					if err := c.Send(p, r, i, payload(me, r, i)); err != nil {
						ok = false
						return
					}
				}
			}
			for s := 0; s < nodes; s++ {
				for i := 0; i < counts[s][me]; i++ {
					want := payload(s, me, i)
					buf := make([]byte, len(want))
					st, err := c.Recv(p, s, i, buf)
					if err != nil || st.Len != len(want) || !bytes.Equal(buf, want) {
						ok = false
						return
					}
				}
			}
		})
		if err := k.Run(); err != nil {
			return false
		}
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 8}); err != nil {
		t.Fatal(err)
	}
}

func TestBadArguments(t *testing.T) {
	run(t, cluster.SCRAMNet, 2, func(p *sim.Proc, c *mpi.Comm) {
		if c.Rank() != 0 {
			return
		}
		if err := c.Send(p, 5, 0, nil); err != mpi.ErrBadRank {
			t.Errorf("bad rank err = %v", err)
		}
		if err := c.Send(p, 1, -3, nil); err != mpi.ErrBadTag {
			t.Errorf("bad tag err = %v", err)
		}
		if _, err := c.Irecv(p, 9, 0, nil); err != mpi.ErrBadRank {
			t.Errorf("bad src err = %v", err)
		}
	})
}

func TestManyRanksTree(t *testing.T) {
	// Collectives on a larger ring exercise deeper binomial trees.
	const nodes = 7
	run(t, cluster.SCRAMNet, nodes, func(p *sim.Proc, c *mpi.Comm) {
		buf := []byte{0}
		if c.Rank() == 3 {
			buf[0] = 42
		}
		if err := c.Bcast(p, 3, buf); err != nil || buf[0] != 42 {
			t.Errorf("rank %d: %v %d", c.Rank(), err, buf[0])
		}
		if err := c.Barrier(p); err != nil {
			t.Error(err)
		}
	})
}

func ExampleComm_Send() {
	k := sim.NewKernel()
	_, w, err := cluster.NewMPIWorld(k, cluster.SCRAMNet, 2)
	if err != nil {
		panic(err)
	}
	w.RunSPMD(k, func(p *sim.Proc, c *mpi.Comm) {
		if c.Rank() == 0 {
			c.Send(p, 1, 0, []byte("hello"))
		} else {
			buf := make([]byte, 8)
			st, _ := c.Recv(p, 0, 0, buf)
			fmt.Printf("rank 1 got %q\n", buf[:st.Len])
		}
	})
	if err := k.Run(); err != nil {
		panic(err)
	}
	// Output: rank 1 got "hello"
}

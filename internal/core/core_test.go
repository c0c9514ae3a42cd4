package core

import (
	"bytes"
	"fmt"
	"testing"
	"testing/quick"

	"repro/internal/scramnet"
	"repro/internal/sim"
)

// world builds a kernel, ring, BBP system and attached endpoints with
// the single-writer assertion armed.
func world(t testing.TB, nodes int, mutate ...func(*Config)) (*sim.Kernel, *System, []*Endpoint) {
	t.Helper()
	k := sim.NewKernel()
	ringCfg := scramnet.DefaultConfig(nodes)
	ringCfg.SingleWriterCheck = true
	net, err := scramnet.New(k, ringCfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
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
	return k, sys, eps
}

func TestSendRecvRoundtrip(t *testing.T) {
	k, _, eps := world(t, 2)
	msg := []byte("hello, billboard")
	var got []byte
	k.Spawn("sender", func(p *sim.Proc) {
		if err := eps[0].Send(p, 1, msg); err != nil {
			t.Error(err)
		}
	})
	k.Spawn("receiver", func(p *sim.Proc) {
		buf := make([]byte, 64)
		n, err := eps[1].Recv(p, 0, buf)
		if err != nil {
			t.Error(err)
			return
		}
		got = append(got, buf[:n]...)
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, msg) {
		t.Fatalf("received %q, want %q", got, msg)
	}
}

func TestZeroByteMessage(t *testing.T) {
	k, _, eps := world(t, 2)
	var n int = -1
	k.Spawn("sender", func(p *sim.Proc) {
		if err := eps[0].Send(p, 1, nil); err != nil {
			t.Error(err)
		}
	})
	k.Spawn("receiver", func(p *sim.Proc) {
		var err error
		n, err = eps[1].Recv(p, 0, nil)
		if err != nil {
			t.Error(err)
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if n != 0 {
		t.Fatalf("zero-byte message length = %d", n)
	}
}

func TestInOrderDelivery(t *testing.T) {
	k, _, eps := world(t, 2)
	const count = 50
	var got []int
	k.Spawn("sender", func(p *sim.Proc) {
		for i := 0; i < count; i++ {
			if err := eps[0].Send(p, 1, []byte{byte(i)}); err != nil {
				t.Error(err)
				return
			}
		}
	})
	k.Spawn("receiver", func(p *sim.Proc) {
		buf := make([]byte, 8)
		for i := 0; i < count; i++ {
			n, err := eps[1].Recv(p, 0, buf)
			if err != nil || n != 1 {
				t.Errorf("recv %d: n=%d err=%v", i, n, err)
				return
			}
			got = append(got, int(buf[0]))
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("message %d arrived out of order (got payload %d)", i, v)
		}
	}
}

func TestGarbageCollectionReclaims(t *testing.T) {
	// Far more messages than buffer slots: progress requires GC, which
	// requires the receiver's ACK toggles to be honored.
	k, _, eps := world(t, 2, func(c *Config) { c.Buffers = 4 })
	const count = 200
	k.Spawn("sender", func(p *sim.Proc) {
		for i := 0; i < count; i++ {
			if err := eps[0].Send(p, 1, []byte{byte(i)}); err != nil {
				t.Errorf("send %d: %v", i, err)
				return
			}
		}
	})
	received := 0
	k.Spawn("receiver", func(p *sim.Proc) {
		buf := make([]byte, 8)
		for i := 0; i < count; i++ {
			if _, err := eps[1].Recv(p, 0, buf); err != nil {
				t.Errorf("recv %d: %v", i, err)
				return
			}
			received++
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if received != count {
		t.Fatalf("received %d of %d", received, count)
	}
	if eps[0].Stats().GCPasses == 0 {
		t.Error("expected at least one GC pass with 4 slots and 200 sends")
	}
}

func TestAllocTimesOutWithoutReceiver(t *testing.T) {
	k, _, eps := world(t, 2, func(c *Config) {
		c.Buffers = 2
		c.RecvTimeout = 200 * sim.Microsecond
	})
	var sendErr error
	k.Spawn("sender", func(p *sim.Proc) {
		for i := 0; i < 10; i++ {
			if err := eps[0].Send(p, 1, []byte{1}); err != nil {
				sendErr = err
				return
			}
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if sendErr != ErrTimeout {
		t.Fatalf("sendErr = %v, want ErrTimeout", sendErr)
	}
}

func TestMcastDeliversToAllAddressed(t *testing.T) {
	k, _, eps := world(t, 4)
	msg := []byte("multicast payload")
	results := make([][]byte, 4)
	k.Spawn("sender", func(p *sim.Proc) {
		if err := eps[0].Mcast(p, []int{1, 3}, msg); err != nil {
			t.Error(err)
		}
	})
	for _, r := range []int{1, 3} {
		r := r
		k.Spawn(fmt.Sprintf("rx%d", r), func(p *sim.Proc) {
			buf := make([]byte, 64)
			n, err := eps[r].Recv(p, 0, buf)
			if err != nil {
				t.Error(err)
				return
			}
			results[r] = append([]byte(nil), buf[:n]...)
		})
	}
	// Node 2 is not addressed: it must see nothing.
	k.Spawn("rx2", func(p *sim.Proc) {
		p.Delay(500 * sim.Microsecond)
		if eps[2].MsgAvailFrom(p, 0) {
			t.Error("unaddressed node 2 sees a message")
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	for _, r := range []int{1, 3} {
		if !bytes.Equal(results[r], msg) {
			t.Errorf("node %d received %q", r, results[r])
		}
	}
}

func TestMcastSingleDataTransmission(t *testing.T) {
	// §3: "Each extra receiver adds only the cost of writing one more
	// word to SCRAMNet memory at the sender." Mechanically: a broadcast
	// injects exactly (nrecv-1) more ring packets than a unicast of the
	// same payload.
	count := func(bcast bool) int64 {
		k, _, eps := world(t, 4)
		payload := make([]byte, 256)
		k.Spawn("sender", func(p *sim.Proc) {
			if bcast {
				if err := eps[0].Bcast(p, payload); err != nil {
					t.Error(err)
				}
			} else {
				if err := eps[0].Send(p, 1, payload); err != nil {
					t.Error(err)
				}
			}
		})
		recv := []int{1}
		if bcast {
			recv = []int{1, 2, 3}
		}
		for _, r := range recv {
			r := r
			k.Spawn(fmt.Sprintf("rx%d", r), func(p *sim.Proc) {
				buf := make([]byte, 512)
				if _, err := eps[r].Recv(p, 0, buf); err != nil {
					t.Error(err)
				}
			})
		}
		if err := k.Run(); err != nil {
			t.Fatal(err)
		}
		return eps[0].sys.net.NIC(0).Stats().PacketsSent
	}
	uni, bc := count(false), count(true)
	if bc != uni+2 {
		t.Fatalf("broadcast sent %d packets, unicast %d: want exactly 2 extra flag packets", bc, uni)
	}
}

func TestErrTooLarge(t *testing.T) {
	k, sys, eps := world(t, 2)
	var err error
	k.Spawn("sender", func(p *sim.Proc) {
		err = eps[0].Send(p, 1, make([]byte, sys.MaxMessage()+1))
	})
	if e := k.Run(); e != nil {
		t.Fatal(e)
	}
	if err != ErrTooLarge {
		t.Fatalf("err = %v, want ErrTooLarge", err)
	}
}

func TestErrTruncated(t *testing.T) {
	k, _, eps := world(t, 2)
	var err error
	k.Spawn("sender", func(p *sim.Proc) {
		if e := eps[0].Send(p, 1, make([]byte, 100)); e != nil {
			t.Error(e)
		}
	})
	k.Spawn("receiver", func(p *sim.Proc) {
		_, err = eps[1].Recv(p, 0, make([]byte, 10))
	})
	if e := k.Run(); e != nil && err == nil {
		t.Fatal(e)
	}
	if err != ErrTruncated {
		t.Fatalf("err = %v, want ErrTruncated", err)
	}
}

func TestErrBadRank(t *testing.T) {
	k, _, eps := world(t, 2)
	k.Spawn("p", func(p *sim.Proc) {
		if err := eps[0].Send(p, 0, nil); err != ErrBadRank {
			t.Errorf("self-send err = %v", err)
		}
		if err := eps[0].Send(p, 5, nil); err != ErrBadRank {
			t.Errorf("out-of-range err = %v", err)
		}
		if err := eps[0].Mcast(p, []int{0}, nil); err != ErrBadRank {
			t.Errorf("mcast-to-self err = %v", err)
		}
		if err := eps[0].Mcast(p, nil, nil); err != ErrBadRank {
			t.Errorf("empty-mcast err = %v", err)
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestMsgAvailAndTryRecv(t *testing.T) {
	k, _, eps := world(t, 2)
	k.Spawn("receiver", func(p *sim.Proc) {
		if eps[1].MsgAvail(p) {
			t.Error("MsgAvail true before any send")
		}
		if _, ok, _ := eps[1].TryRecv(p, 0, make([]byte, 8)); ok {
			t.Error("TryRecv succeeded before any send")
		}
		p.Delay(100 * sim.Microsecond) // let the sender's message land
		if !eps[1].MsgAvail(p) {
			t.Error("MsgAvail false after send")
		}
		n, ok, err := eps[1].TryRecv(p, 0, make([]byte, 8))
		if !ok || err != nil || n != 3 {
			t.Errorf("TryRecv = (%d,%v,%v)", n, ok, err)
		}
	})
	k.Spawn("sender", func(p *sim.Proc) {
		p.Delay(20 * sim.Microsecond)
		if err := eps[0].Send(p, 1, []byte{1, 2, 3}); err != nil {
			t.Error(err)
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestRecvAnyFairness(t *testing.T) {
	k, _, eps := world(t, 4)
	const per = 20
	for s := 1; s < 4; s++ {
		s := s
		k.Spawn(fmt.Sprintf("tx%d", s), func(p *sim.Proc) {
			for i := 0; i < per; i++ {
				if err := eps[s].Send(p, 0, []byte{byte(s)}); err != nil {
					t.Error(err)
					return
				}
			}
		})
	}
	counts := map[int]int{}
	k.Spawn("rx", func(p *sim.Proc) {
		buf := make([]byte, 8)
		for i := 0; i < 3*per; i++ {
			src, n, err := eps[0].RecvAny(p, buf)
			if err != nil || n != 1 || int(buf[0]) != src {
				t.Errorf("RecvAny: src=%d n=%d payload=%d err=%v", src, n, buf[0], err)
				return
			}
			counts[src]++
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	for s := 1; s < 4; s++ {
		if counts[s] != per {
			t.Errorf("source %d delivered %d of %d", s, counts[s], per)
		}
	}
}

func TestUnicastLatencyCalibration(t *testing.T) {
	// The paper's headline: 4-byte one-way latency 7.8 µs, 0-byte 6.5 µs
	// at the API layer. The simulator must land in that neighborhood.
	lat := func(n int) float64 {
		k, _, eps := world(t, 4)
		var sent, recvd sim.Time
		k.Spawn("rx", func(p *sim.Proc) {
			buf := make([]byte, 64)
			if _, err := eps[1].Recv(p, 0, buf); err != nil {
				t.Error(err)
			}
			recvd = p.Now()
		})
		k.Spawn("tx", func(p *sim.Proc) {
			p.Delay(10 * sim.Microsecond) // receiver already polling
			sent = p.Now()
			if err := eps[0].Send(p, 1, make([]byte, n)); err != nil {
				t.Error(err)
			}
		})
		if err := k.Run(); err != nil {
			t.Fatal(err)
		}
		return recvd.Sub(sent).Microseconds()
	}
	l0, l4 := lat(0), lat(4)
	if l4 < 5 || l4 > 12 {
		t.Errorf("4-byte one-way latency %.2f µs, paper anchor 7.8 µs", l4)
	}
	if l0 >= l4 {
		t.Errorf("0-byte latency %.2f µs not below 4-byte %.2f µs", l0, l4)
	}
}

func TestInterruptDrivenMode(t *testing.T) {
	lat := func(interrupts bool) float64 {
		k, _, eps := world(t, 2, func(c *Config) { c.InterruptDriven = interrupts })
		var recvd sim.Time
		k.Spawn("rx", func(p *sim.Proc) {
			buf := make([]byte, 8)
			if _, err := eps[1].Recv(p, 0, buf); err != nil {
				t.Error(err)
			}
			recvd = p.Now()
		})
		k.Spawn("tx", func(p *sim.Proc) {
			p.Delay(10 * sim.Microsecond)
			if err := eps[0].Send(p, 1, []byte{1, 2, 3, 4}); err != nil {
				t.Error(err)
			}
		})
		if err := k.Run(); err != nil {
			t.Fatal(err)
		}
		return recvd.Sub(sim.Time(10 * sim.Microsecond)).Microseconds()
	}
	polled, intr := lat(false), lat(true)
	if intr <= polled {
		t.Errorf("interrupt receive %.2fµs should cost more than polling %.2fµs for short messages", intr, polled)
	}
}

func TestPropertyExactlyOnceInOrderAllPairs(t *testing.T) {
	// Property: with every process sending a random number of messages
	// to every other process (random sizes, random pacing), every stream
	// is delivered exactly once, in order, bit-exact.
	f := func(seed uint64) bool {
		const nodes = 4
		k := sim.NewKernel()
		defer k.Close()
		ringCfg := scramnet.DefaultConfig(nodes)
		ringCfg.SingleWriterCheck = true
		net, err := scramnet.New(k, ringCfg)
		if err != nil {
			return false
		}
		cfg := DefaultConfig()
		cfg.Buffers = 8
		sys, err := New(net, cfg)
		if err != nil {
			return false
		}
		eps := make([]*Endpoint, nodes)
		for i := range eps {
			if eps[i], err = sys.Attach(i); err != nil {
				return false
			}
		}
		rng := sim.NewRNG(seed)
		counts := [nodes][nodes]int{}
		for s := 0; s < nodes; s++ {
			for r := 0; r < nodes; r++ {
				if s != r {
					counts[s][r] = rng.Intn(12)
				}
			}
		}
		payload := func(s, r, i, n int) []byte {
			b := make([]byte, n)
			sim.NewRNG(uint64(s)<<32 | uint64(r)<<16 | uint64(i)).Bytes(b)
			return b
		}
		fail := false
		for s := 0; s < nodes; s++ {
			s := s
			gap := sim.Duration(rng.Intn(30)) * sim.Microsecond
			sizes := make([][nodes]int, 64)
			for i := range sizes {
				for r := range sizes[i] {
					sizes[i][r] = rng.Intn(600)
				}
			}
			k.Spawn(fmt.Sprintf("tx%d", s), func(p *sim.Proc) {
				for i := 0; i < 12; i++ {
					for r := 0; r < nodes; r++ {
						if r == s || i >= counts[s][r] {
							continue
						}
						if err := eps[s].Send(p, r, payload(s, r, i, sizes[i][r])); err != nil {
							fail = true
							return
						}
						p.Delay(gap)
					}
				}
			})
		}
		for r := 0; r < nodes; r++ {
			r := r
			k.Spawn(fmt.Sprintf("rx%d", r), func(p *sim.Proc) {
				buf := make([]byte, 1024)
				next := [nodes]int{}
				total := 0
				for s := 0; s < nodes; s++ {
					total += counts[s][r]
				}
				for got := 0; got < total; got++ {
					src, n, err := eps[r].RecvAny(p, buf)
					if err != nil {
						fail = true
						return
					}
					i := next[src]
					next[src]++
					// Verify content against the deterministic generator:
					// a skipped or reordered message mismatches here.
					if !bytes.Equal(buf[:n], payload(src, r, i, n)) {
						fail = true
						return
					}
				}
			})
		}
		if err := k.Run(); err != nil {
			return false
		}
		return !fail
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Fatal(err)
	}
}

func TestAttachTwiceFails(t *testing.T) {
	k, sys, _ := world(t, 2)
	defer k.Close()
	if _, err := sys.Attach(0); err == nil {
		t.Fatal("second Attach(0) succeeded")
	}
	if _, err := sys.Attach(9); err != ErrBadRank {
		t.Fatalf("Attach(9) err = %v", err)
	}
}

func TestAllocatorProperty(t *testing.T) {
	// Property: any interleaving of allocs and frees never double-books
	// bytes, and freeing everything restores a single maximal span.
	f := func(seed uint64) bool {
		a := newAllocator(1 << 16)
		rng := sim.NewRNG(seed)
		type block struct{ off, n int }
		var held []block
		for i := 0; i < 300; i++ {
			if rng.Intn(2) == 0 {
				n := rng.Intn(2000) + 1
				if off, ok := a.alloc(n); ok {
					for _, h := range held {
						lo, hi := off, off+((n+3)&^3)
						if lo < h.off+h.n && h.off < hi {
							return false // overlap
						}
					}
					held = append(held, block{off, (n + 3) &^ 3})
				}
			} else if len(held) > 0 {
				i := rng.Intn(len(held))
				a.release(held[i].off, held[i].n)
				held = append(held[:i], held[i+1:]...)
			}
		}
		for _, h := range held {
			a.release(h.off, h.n)
		}
		return a.totalFree() == 1<<16 && a.largestFree() == 1<<16
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestSeqLessWraparound(t *testing.T) {
	if !seqLess(0xFFFFFFFF, 0) {
		t.Error("wraparound compare failed")
	}
	if seqLess(5, 5) || seqLess(6, 5) {
		t.Error("ordering broken")
	}
}

package tcpip

import (
	"bytes"
	"fmt"
	"testing"
	"testing/quick"

	"repro/internal/atm"
	"repro/internal/ethernet"
	"repro/internal/myrinet"
	"repro/internal/sim"
	"repro/internal/xport"
)

func feWorld(t testing.TB, nodes int, mutate ...func(*Config)) (*sim.Kernel, []*Stack) {
	t.Helper()
	k := sim.NewKernel()
	fab, err := xport.NewSwitch(k, ethernet.DefaultConfig(nodes))
	if err != nil {
		t.Fatal(err)
	}
	cfg := FastEthernetProfile()
	for _, m := range mutate {
		m(&cfg)
	}
	stacks := make([]*Stack, nodes)
	for i := range stacks {
		stacks[i] = NewStack(k, fab, i, cfg)
	}
	return k, stacks
}

func TestHeaderRoundtrip(t *testing.T) {
	// Every segment is encoded into one reused buffer, first filled
	// with 0xff, and its header must match a fresh encoding's: no stale
	// byte of an earlier frame may survive.
	buf := bytes.Repeat([]byte{0xff}, HeaderBytes+255)
	f := func(kind byte, msgID, off, total, ack uint32, n uint8) bool {
		payload := make([]byte, n)
		sim.NewRNG(uint64(msgID)).Bytes(payload)
		h := header{kind: kind, msgID: msgID, off: off, total: total, ack: ack}
		buf = encodeHeader(buf, h, payload)
		got, pl, err := decodeHeader(buf)
		fresh := encodeHeader(nil, h, nil)
		return err == nil && got == h && bytes.Equal(pl, payload) && bytes.Equal(buf[:HeaderBytes], fresh)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestShortFrameRejected(t *testing.T) {
	if _, _, err := decodeHeader(make([]byte, 10)); err == nil {
		t.Fatal("short frame accepted")
	}
}

func TestMessageRoundtrip(t *testing.T) {
	k, stacks := feWorld(t, 2)
	msg := []byte("over the fast ethernet")
	var got []byte
	k.Spawn("tx", func(p *sim.Proc) {
		if err := stacks[0].Send(p, 1, msg); err != nil {
			t.Error(err)
		}
	})
	k.Spawn("rx", func(p *sim.Proc) {
		buf := make([]byte, 64)
		n, err := stacks[1].Recv(p, 0, buf)
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
		t.Fatalf("got %q", got)
	}
}

func TestSegmentationReassemblyIdentity(t *testing.T) {
	// Property: any payload size — sub-MTU, exactly MSS, multi-segment,
	// window-filling — survives segmentation and reassembly bit-exact.
	f := func(seed uint64, sizeRaw uint32) bool {
		size := int(sizeRaw % 200000)
		k, stacks := feWorld(t, 2)
		defer k.Close()
		msg := make([]byte, size)
		sim.NewRNG(seed).Bytes(msg)
		ok := false
		k.Spawn("tx", func(p *sim.Proc) {
			if err := stacks[0].Send(p, 1, msg); err != nil {
				t.Error(err)
			}
		})
		k.Spawn("rx", func(p *sim.Proc) {
			buf := make([]byte, size+1)
			n, err := stacks[1].Recv(p, 0, buf)
			ok = err == nil && n == size && bytes.Equal(buf[:n], msg)
		})
		if err := k.Run(); err != nil {
			return false
		}
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

func TestWindowLimitsInFlight(t *testing.T) {
	// A transfer far larger than the window must complete (ACK clocking
	// works) and the sender must have emitted ACK-paced segments.
	k, stacks := feWorld(t, 2, func(c *Config) { c.WindowBytes = 8 << 10 })
	const size = 256 << 10
	k.Spawn("tx", func(p *sim.Proc) {
		if err := stacks[0].Send(p, 1, make([]byte, size)); err != nil {
			t.Error(err)
		}
	})
	done := false
	k.Spawn("rx", func(p *sim.Proc) {
		buf := make([]byte, size)
		n, err := stacks[1].Recv(p, 0, buf)
		done = err == nil && n == size
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if !done {
		t.Fatal("windowed transfer did not complete")
	}
	if stacks[1].Stats().AcksSent == 0 {
		t.Fatal("no ACKs emitted during a window-limited transfer")
	}
	if stacks[0].Stats().AcksRecv == 0 {
		t.Fatal("sender processed no ACKs")
	}
}

func TestInOrderAcrossSizes(t *testing.T) {
	k, stacks := feWorld(t, 2)
	sizes := []int{0, 1, 1456, 1457, 5000, 3, 40000, 7}
	k.Spawn("tx", func(p *sim.Proc) {
		for i, n := range sizes {
			msg := make([]byte, n)
			for j := range msg {
				msg[j] = byte(i)
			}
			if err := stacks[0].Send(p, 1, msg); err != nil {
				t.Error(err)
				return
			}
		}
	})
	k.Spawn("rx", func(p *sim.Proc) {
		buf := make([]byte, 64<<10)
		for i, want := range sizes {
			n, err := stacks[1].Recv(p, 0, buf)
			if err != nil || n != want {
				t.Errorf("msg %d: n=%d want=%d err=%v", i, n, want, err)
				return
			}
			for j := 0; j < n; j++ {
				if buf[j] != byte(i) {
					t.Errorf("msg %d corrupted at byte %d", i, j)
					return
				}
			}
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestLatencyCalibrationFE(t *testing.T) {
	// DESIGN.md §5: TCP-lite on Fast Ethernet, 0-byte one-way ≈150 µs.
	lat := oneWay(t, "fe", 0)
	if lat < 110 || lat > 190 {
		t.Fatalf("FE 0-byte one-way %.1f µs, want ≈150", lat)
	}
	// Slope sanity: 1456 bytes in one frame adds wire+copy+checksum time.
	lat1456 := oneWay(t, "fe", 1456)
	if lat1456 <= lat {
		t.Fatalf("1456-byte latency %.1f µs not above 0-byte %.1f µs", lat1456, lat)
	}
}

func TestLatencyCalibrationATMAboveFE(t *testing.T) {
	// Figure 6 implies ATM's small-message latency exceeds Fast
	// Ethernet's (554 µs vs 660 µs 3-node barriers).
	fe, atmLat := oneWay(t, "fe", 4), oneWay(t, "atm", 4)
	if atmLat <= fe {
		t.Fatalf("ATM 4-byte one-way %.1f µs should exceed FE's %.1f µs", atmLat, fe)
	}
}

func TestATMFasterPerByte(t *testing.T) {
	// ...but ATM's higher wire rate and hardware CRC make its large
	// messages cheaper: the slope inversion behind Figure 2/3.
	const size = 8 << 10
	feDelta := oneWay(t, "fe", size) - oneWay(t, "fe", 0)
	atmDelta := oneWay(t, "atm", size) - oneWay(t, "atm", 0)
	if atmDelta >= feDelta {
		t.Fatalf("ATM per-byte cost (Δ=%.1fµs) should be below FE's (Δ=%.1fµs)", atmDelta, feDelta)
	}
}

// oneWay measures one-way latency of an n-byte message on a named
// network profile with the receiver already blocked in Recv.
func oneWay(t testing.TB, net string, n int) float64 {
	t.Helper()
	k := sim.NewKernel()
	var fab xport.Fabric
	var cfg Config
	var err error
	switch net {
	case "fe":
		fab, err = xport.NewSwitch(k, ethernet.DefaultConfig(2))
		cfg = FastEthernetProfile()
	case "atm":
		fab, err = xport.NewSwitch(k, atm.DefaultConfig(2))
		cfg = ATMProfile()
	case "myr":
		fab, err = xport.NewSwitch(k, myrinet.DefaultConfig(2))
		cfg = MyrinetProfile()
	default:
		t.Fatalf("unknown net %q", net)
	}
	if err != nil {
		t.Fatal(err)
	}
	s0, s1 := NewStack(k, fab, 0, cfg), NewStack(k, fab, 1, cfg)
	var sent, recvd sim.Time
	k.Spawn("rx", func(p *sim.Proc) {
		buf := make([]byte, n+1)
		if _, err := s1.Recv(p, 0, buf); err != nil {
			t.Error(err)
		}
		recvd = p.Now()
	})
	k.Spawn("tx", func(p *sim.Proc) {
		p.Delay(50 * sim.Microsecond)
		sent = p.Now()
		if err := s0.Send(p, 1, make([]byte, n)); err != nil {
			t.Error(err)
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	return recvd.Sub(sent).Microseconds()
}

func TestErrTooLargeAndBadRank(t *testing.T) {
	k, stacks := feWorld(t, 2)
	k.Spawn("p", func(p *sim.Proc) {
		if err := stacks[0].Send(p, 1, make([]byte, stacks[0].MaxMessage()+1)); err != ErrTooLarge {
			t.Errorf("oversize err = %v", err)
		}
		if err := stacks[0].Send(p, 0, nil); err != ErrBadRank {
			t.Errorf("self err = %v", err)
		}
		if _, err := stacks[0].Recv(p, 7, nil); err != ErrBadRank {
			t.Errorf("bad-src err = %v", err)
		}
		if _, _, err := stacks[0].TryRecv(p, 0, nil); err != ErrBadRank {
			t.Errorf("TryRecv self err = %v", err)
		}
		for _, dsts := range [][]int{nil, {0}, {1, 2}} {
			if err := stacks[0].Mcast(p, dsts, nil); err != ErrBadRank {
				t.Errorf("Mcast to %v err = %v", dsts, err)
			}
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestRecvTimeout(t *testing.T) {
	k, stacks := feWorld(t, 2, func(c *Config) { c.RecvTimeout = 300 * sim.Microsecond })
	var err error
	k.Spawn("rx", func(p *sim.Proc) {
		_, err = stacks[1].Recv(p, 0, make([]byte, 8))
	})
	if e := k.Run(); e != nil {
		t.Fatal(e)
	}
	if err != ErrTimeout {
		t.Fatalf("err = %v, want ErrTimeout", err)
	}
}

func TestRecvAnyAndTryRecv(t *testing.T) {
	k, stacks := feWorld(t, 3)
	k.Spawn("rx", func(p *sim.Proc) {
		buf := make([]byte, 8)
		if _, ok, _ := stacks[0].TryRecv(p, 1, buf); ok {
			t.Error("TryRecv hit before send")
		}
		seen := map[int]bool{}
		for i := 0; i < 2; i++ {
			src, n, err := stacks[0].RecvAny(p, buf)
			if err != nil || n != 1 {
				t.Errorf("RecvAny: %v", err)
				return
			}
			seen[src] = true
		}
		if !seen[1] || !seen[2] {
			t.Errorf("sources seen: %v", seen)
		}
	})
	for _, s := range []int{1, 2} {
		s := s
		k.Spawn(fmt.Sprintf("tx%d", s), func(p *sim.Proc) {
			p.Delay(sim.Duration(s) * 100 * sim.Microsecond)
			if err := stacks[s].Send(p, 0, []byte{byte(s)}); err != nil {
				t.Error(err)
			}
		})
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestBidirectionalTraffic(t *testing.T) {
	// Full-duplex links: simultaneous opposite transfers must both
	// complete, exercising ACKs riding against data.
	k, stacks := feWorld(t, 2)
	const size = 50 << 10
	ok := [2]bool{}
	for i := 0; i < 2; i++ {
		i := i
		k.Spawn(fmt.Sprintf("node%d", i), func(p *sim.Proc) {
			peer := 1 - i
			if err := stacks[i].Send(p, peer, make([]byte, size)); err != nil {
				t.Error(err)
				return
			}
			buf := make([]byte, size)
			n, err := stacks[i].Recv(p, peer, buf)
			ok[i] = err == nil && n == size
		})
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if !ok[0] || !ok[1] {
		t.Fatalf("bidirectional transfer: %v", ok)
	}
}

func TestTruncatedRecvConsumes(t *testing.T) {
	// A too-small buffer fails the receive with ErrTruncated and
	// consumes the message, through Recv and TryRecv alike.
	k, stacks := feWorld(t, 2)
	k.Spawn("tx", func(p *sim.Proc) {
		for _, m := range []string{"first message", "second message", "ok"} {
			if err := stacks[0].Send(p, 1, []byte(m)); err != nil {
				t.Error(err)
			}
		}
	})
	k.Spawn("rx", func(p *sim.Proc) {
		small := make([]byte, 4)
		if _, err := stacks[1].Recv(p, 0, small); err != ErrTruncated {
			t.Errorf("Recv err = %v, want ErrTruncated", err)
		}
		p.Delay(1 * sim.Millisecond)
		if _, ok, err := stacks[1].TryRecv(p, 0, small); ok || err != ErrTruncated {
			t.Errorf("TryRecv: ok=%v err=%v, want ErrTruncated", ok, err)
		}
		n, err := stacks[1].Recv(p, 0, small)
		if err != nil || string(small[:n]) != "ok" {
			t.Errorf("third message: %q, %v", small[:n], err)
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}

package core

import (
	"bytes"
	"fmt"
	"testing"
	"testing/quick"

	"repro/internal/scramnet"
	"repro/internal/sim"
	"repro/internal/trace"
)

func TestMcastPartialAcksBlockReuse(t *testing.T) {
	// A multicast buffer may be reclaimed only after EVERY addressed
	// receiver acknowledges. With one slow receiver and few slots, the
	// sender must stall until the straggler catches up — never reuse a
	// live buffer.
	k, _, eps := world(t, 3, func(c *Config) { c.Buffers = 2 })
	const count = 10
	var senderDone, slowStart sim.Time
	k.Spawn("tx", func(p *sim.Proc) {
		for i := 0; i < count; i++ {
			if err := eps[0].Mcast(p, []int{1, 2}, []byte{byte(i)}); err != nil {
				t.Errorf("mcast %d: %v", i, err)
				return
			}
		}
		senderDone = p.Now()
	})
	k.Spawn("fast", func(p *sim.Proc) {
		buf := make([]byte, 4)
		for i := 0; i < count; i++ {
			if _, err := eps[1].Recv(p, 0, buf); err != nil || buf[0] != byte(i) {
				t.Errorf("fast recv %d: %v", i, err)
				return
			}
		}
	})
	k.Spawn("slow", func(p *sim.Proc) {
		p.Delay(5 * sim.Millisecond)
		slowStart = p.Now()
		buf := make([]byte, 4)
		for i := 0; i < count; i++ {
			if _, err := eps[2].Recv(p, 0, buf); err != nil || buf[0] != byte(i) {
				t.Errorf("slow recv %d: %v (got %d)", i, err, buf[0])
				return
			}
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if senderDone < slowStart {
		t.Fatalf("sender finished at %v before the slow receiver started at %v: a live multicast buffer was reused", senderDone, slowStart)
	}
}

func TestRecvTimesOutWhenRingBreaks(t *testing.T) {
	// Single ring (no bypass): the ring breaks mid-conversation and the
	// receiver's poll loop must give up with ErrTimeout, not hang.
	k := sim.NewKernel()
	cfg := scramnet.DefaultConfig(4)
	cfg.DualRing = false
	net, err := scramnet.New(k, cfg)
	if err != nil {
		t.Fatal(err)
	}
	bcfg := DefaultConfig()
	bcfg.RecvTimeout = 2 * sim.Millisecond
	sys, err := New(net, bcfg)
	if err != nil {
		t.Fatal(err)
	}
	e0, _ := sys.Attach(0)
	e2, _ := sys.Attach(2)
	var recvErr error
	k.Spawn("tx", func(p *sim.Proc) {
		p.Delay(100 * sim.Microsecond) // after the break below
		if err := e0.Send(p, 2, []byte{1}); err != nil && err != ErrTimeout {
			t.Error(err)
		}
	})
	k.Spawn("rx", func(p *sim.Proc) {
		_, recvErr = e2.Recv(p, 0, make([]byte, 4))
	})
	net.FailNode(1) // breaks 0→2 on the single ring
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if recvErr != ErrTimeout {
		t.Fatalf("recvErr = %v, want ErrTimeout", recvErr)
	}
}

func TestBBPRequiresReliableHardware(t *testing.T) {
	// The BillBoard Protocol carries no checksums or retransmission: it
	// leans entirely on SCRAMNet's reliable replication (the ring's CRC
	// discards a corrupted packet and the word is simply never applied).
	// This test documents the consequence: under injected packet loss,
	// deliveries go wrong — stale descriptors, missing payload words,
	// or receive timeouts — but the protocol must degrade cleanly (no
	// panic, no deadlock) and deterministically.
	outcome := func() (intact, corrupt, timeouts int) {
		k := sim.NewKernel()
		cfg := scramnet.DefaultConfig(2)
		cfg.Seed = 3
		net, err := scramnet.New(k, cfg)
		if err != nil {
			t.Fatal(err)
		}
		net.SetDropRate(0.6)
		bcfg := DefaultConfig()
		bcfg.RecvTimeout = 3 * sim.Millisecond
		sys, err := New(net, bcfg)
		if err != nil {
			t.Fatal(err)
		}
		e0, _ := sys.Attach(0)
		e1, _ := sys.Attach(1)
		k.Spawn("tx", func(p *sim.Proc) {
			for i := 0; i < 10; i++ {
				if err := e0.Send(p, 1, []byte{byte(i), 0xA5, 0x5A, byte(i)}); err != nil && err != ErrTimeout {
					t.Error(err)
					return
				}
			}
		})
		k.Spawn("rx", func(p *sim.Proc) {
			buf := make([]byte, 8)
			for i := 0; i < 10; i++ {
				n, err := e1.Recv(p, 0, buf)
				switch {
				case err == ErrTimeout:
					timeouts++
					return
				case err != nil:
					t.Error(err)
					return
				case n == 4 && buf[0] == byte(i) && buf[1] == 0xA5 && buf[2] == 0x5A:
					intact++
				default:
					corrupt++
				}
			}
		})
		if err := k.Run(); err != nil {
			t.Fatal(err)
		}
		return
	}
	intact, corrupt, timeouts := outcome()
	if corrupt+timeouts == 0 {
		t.Fatalf("60%% packet loss left all %d messages intact; fault injection ineffective", intact)
	}
	i2, c2, to2 := outcome()
	if i2 != intact || c2 != corrupt || to2 != timeouts {
		t.Fatalf("fault outcomes not deterministic: (%d,%d,%d) vs (%d,%d,%d)", intact, corrupt, timeouts, i2, c2, to2)
	}
}
func TestBBPOverVariableModeRing(t *testing.T) {
	// The protocol is mode-agnostic: variable-length packets carry the
	// same messages, faster for bulk.
	oneWay := func(mode scramnet.Mode, n int) float64 {
		k := sim.NewKernel()
		cfg := scramnet.DefaultConfig(4)
		cfg.Mode = mode
		cfg.SingleWriterCheck = true
		net, err := scramnet.New(k, cfg)
		if err != nil {
			t.Fatal(err)
		}
		sys, err := New(net, DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		e0, _ := sys.Attach(0)
		e1, _ := sys.Attach(1)
		var sent, recvd sim.Time
		payload := make([]byte, n)
		sim.NewRNG(1).Bytes(payload)
		var got []byte
		k.Spawn("rx", func(p *sim.Proc) {
			buf := make([]byte, n+1)
			m, err := e1.Recv(p, 0, buf)
			if err != nil {
				t.Error(err)
			}
			got = append([]byte(nil), buf[:m]...)
			recvd = p.Now()
		})
		k.Spawn("tx", func(p *sim.Proc) {
			p.Delay(10 * sim.Microsecond)
			sent = p.Now()
			if err := e0.Send(p, 1, payload); err != nil {
				t.Error(err)
			}
		})
		if err := k.Run(); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, payload) {
			t.Fatal("payload corrupted in variable mode")
		}
		return recvd.Sub(sent).Microseconds()
	}
	fixed := oneWay(scramnet.FixedPackets, 2048)
	variable := oneWay(scramnet.VariablePackets, 2048)
	if variable >= fixed {
		t.Fatalf("2 KB message: variable mode %.1fµs not below fixed %.1fµs", variable, fixed)
	}
}

func TestTracerObservesProtocol(t *testing.T) {
	k := sim.NewKernel()
	net, err := scramnet.New(k, scramnet.DefaultConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	rec := trace.New()
	sys, err := New(net, DefaultConfig(), WithTracer(rec))
	if err != nil {
		t.Fatal(err)
	}
	net.SetTracer(rec)
	e0, _ := sys.Attach(0)
	e1, _ := sys.Attach(1)
	k.Spawn("tx", func(p *sim.Proc) {
		if err := e0.Send(p, 1, []byte{1, 2, 3, 4}); err != nil {
			t.Error(err)
		}
	})
	k.Spawn("rx", func(p *sim.Proc) {
		if _, err := e1.Recv(p, 0, make([]byte, 8)); err != nil {
			t.Error(err)
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"post", "flag-set", "detect", "consume", "inject", "apply"} {
		if rec.Count(name) == 0 {
			t.Errorf("no %q events recorded", name)
		}
	}
	if span, ok := rec.Span("post", "consume"); !ok || span <= 0 || span > sim.Duration(50*sim.Microsecond) {
		t.Errorf("post→consume span = %v ok=%v", span, ok)
	}
}

func TestAllBufferSlotCounts(t *testing.T) {
	// The protocol must work at both extremes of the slot range.
	for _, buffers := range []int{1, 32} {
		buffers := buffers
		t.Run(fmt.Sprintf("buffers=%d", buffers), func(t *testing.T) {
			k, _, eps := world(t, 2, func(c *Config) { c.Buffers = buffers })
			const count = 40
			k.Spawn("tx", func(p *sim.Proc) {
				for i := 0; i < count; i++ {
					if err := eps[0].Send(p, 1, []byte{byte(i)}); err != nil {
						t.Errorf("send %d: %v", i, err)
						return
					}
				}
			})
			k.Spawn("rx", func(p *sim.Proc) {
				buf := make([]byte, 4)
				for i := 0; i < count; i++ {
					if _, err := eps[1].Recv(p, 0, buf); err != nil || buf[0] != byte(i) {
						t.Errorf("recv %d: %v", i, err)
						return
					}
				}
			})
			if err := k.Run(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestMaxProcsRing(t *testing.T) {
	// A 32-process BillBoard on one ring: layout arithmetic and flag
	// words well past the paper's 4-node testbed.
	k, _, eps := world(t, 32)
	ok := false
	k.Spawn("tx", func(p *sim.Proc) {
		if err := eps[0].Send(p, 31, []byte("edge")); err != nil {
			t.Error(err)
		}
	})
	k.Spawn("rx", func(p *sim.Proc) {
		buf := make([]byte, 8)
		n, err := eps[31].Recv(p, 0, buf)
		ok = err == nil && string(buf[:n]) == "edge"
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatal("delivery failed at MaxProcs")
	}
	// Beyond MaxProcs the flat ring itself refuses first (the 256-node
	// address limit is the same bound), so the rejection is exercised on
	// a hierarchy, which can host more than one ring's worth of nodes.
	k2 := sim.NewKernel()
	defer k2.Close()
	hier, err := scramnet.NewHierarchy(k2, scramnet.DefaultHierarchyConfig(2, 160))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := New(hier, DefaultConfig()); err == nil {
		t.Fatal("320 processes accepted beyond MaxProcs")
	}
}

func TestGCStressProperty(t *testing.T) {
	// Property: with a deliberately tiny data partition and random
	// mixed unicast/multicast traffic, heavy garbage collection and
	// fragmentation never corrupt or reorder a stream.
	f := func(seed uint64) bool {
		k := sim.NewKernel()
		defer k.Close()
		ringCfg := scramnet.DefaultConfig(3)
		ringCfg.MemBytes = 16 << 10 // ~5.4 KB per process, ~4.7 KB data
		ringCfg.SingleWriterCheck = true
		net, err := scramnet.New(k, ringCfg)
		if err != nil {
			return false
		}
		cfg := DefaultConfig()
		cfg.Buffers = 4
		sys, err := New(net, cfg)
		if err != nil {
			return false
		}
		eps := make([]*Endpoint, 3)
		for i := range eps {
			if eps[i], err = sys.Attach(i); err != nil {
				return false
			}
		}
		rng := sim.NewRNG(seed)
		const msgs = 25
		kinds := make([]int, msgs) // 0: →1, 1: →2, 2: mcast both
		sizes := make([]int, msgs)
		for i := range kinds {
			kinds[i] = rng.Intn(3)
			sizes[i] = rng.Intn(1200) + 1
		}
		payload := func(i int) []byte {
			b := make([]byte, sizes[i])
			sim.NewRNG(seed ^ uint64(i*31)).Bytes(b)
			return b
		}
		ok := true
		k.Spawn("tx", func(p *sim.Proc) {
			for i := 0; i < msgs; i++ {
				var err error
				switch kinds[i] {
				case 0:
					err = eps[0].Send(p, 1, payload(i))
				case 1:
					err = eps[0].Send(p, 2, payload(i))
				case 2:
					err = eps[0].Mcast(p, []int{1, 2}, payload(i))
				}
				if err != nil {
					ok = false
					return
				}
			}
		})
		for _, r := range []int{1, 2} {
			r := r
			k.Spawn(fmt.Sprintf("rx%d", r), func(p *sim.Proc) {
				buf := make([]byte, 2048)
				for i := 0; i < msgs; i++ {
					if kinds[i] == r-1 || kinds[i] == 2 {
						n, err := eps[r].Recv(p, 0, buf)
						if err != nil || !bytes.Equal(buf[:n], payload(i)) {
							ok = false
							return
						}
						// Uneven consumption keeps the allocator
						// fragmented.
						p.Delay(sim.Duration(rng.Intn(40)) * sim.Microsecond)
					}
				}
			})
		}
		if err := k.Run(); err != nil {
			return false
		}
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 12}); err != nil {
		t.Fatal(err)
	}
}

func TestTinyMemoryRejected(t *testing.T) {
	k := sim.NewKernel()
	cfg := scramnet.DefaultConfig(4)
	cfg.MemBytes = 2048 // not enough for 4 partitions with data room
	net, err := scramnet.New(k, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := New(net, DefaultConfig()); err == nil {
		t.Fatal("insufficient memory accepted")
	}
}

func TestTruncatedRecvFreesSlot(t *testing.T) {
	// A receive into a too-small buffer consumes the message and
	// acknowledges it, so even a single buffer slot is reclaimed: the
	// sender's next post goes through instead of stalling in garbage
	// collection. Under the retry extension the ACK follows the
	// checksum-verified read.
	for _, retry := range []bool{false, true} {
		retry := retry
		t.Run(fmt.Sprintf("retry=%v", retry), func(t *testing.T) {
			k, _, eps := world(t, 2, func(c *Config) {
				c.Buffers = 1
				c.RecvTimeout = 5 * sim.Millisecond
				if retry {
					c.Retry = DefaultRetryConfig()
				}
			})
			got := ""
			k.Spawn("tx", func(p *sim.Proc) {
				for _, m := range []string{"too long for the buffer", "ok"} {
					if err := eps[0].Send(p, 1, []byte(m)); err != nil {
						t.Errorf("send %q: %v", m, err)
						return
					}
				}
			})
			k.Spawn("rx", func(p *sim.Proc) {
				buf := make([]byte, 4)
				if _, err := eps[1].Recv(p, 0, buf); err != ErrTruncated {
					t.Errorf("truncated recv: err = %v, want ErrTruncated", err)
				}
				n, err := eps[1].Recv(p, 0, buf)
				if err != nil {
					t.Errorf("recv after the truncated one: %v", err)
					return
				}
				got = string(buf[:n])
			})
			if err := k.Run(); err != nil {
				t.Fatal(err)
			}
			if got != "ok" {
				t.Fatalf("message after the truncated one: got %q, want %q", got, "ok")
			}
			if st := eps[1].Stats(); st.Received != 1 {
				t.Fatalf("Received = %d, want 1 (a truncated message is not delivered)", st.Received)
			}
		})
	}
}

package myrinet

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"repro/internal/sim"
	"repro/internal/xport"
)

func TestCutThroughBeatsStoreAndForward(t *testing.T) {
	// Cut-through: latency ≈ one serialization + switch latency, not two.
	k := sim.NewKernel()
	cfg := DefaultConfig(2)
	n, _ := xport.NewSwitch(k, cfg)
	var arrival sim.Time
	n.SetHandler(1, func(src int, frame []byte) { arrival = k.Now() })
	k.At(0, func() { n.Transmit(0, 1, make([]byte, 4096)) })
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	oneWire := sim.Duration(4096+cfg.Overhead) * cfg.UnitTime
	want := sim.Time(oneWire + 2*cfg.PropDelay + cfg.SwitchLatency)
	if arrival != want {
		t.Fatalf("arrival = %d, want %d (single serialization)", arrival, want)
	}
}

func TestNativeAPILatencyCalibration(t *testing.T) {
	// Figure 2 calibration: short-message one-way ≈ 85 µs on the vendor
	// API (DESIGN.md §5).
	k := sim.NewKernel()
	n, _ := xport.NewSwitch(k, DefaultConfig(4))
	a0 := OpenAPI(n, 0, DefaultAPIConfig())
	a1 := OpenAPI(n, 1, DefaultAPIConfig())
	var lat sim.Duration
	k.Spawn("rx", func(p *sim.Proc) {
		buf := make([]byte, 64)
		if _, err := a1.Recv(p, 0, buf); err != nil {
			t.Error(err)
		}
		lat = p.Now().Sub(0)
	})
	k.Spawn("tx", func(p *sim.Proc) {
		if err := a0.Send(p, 1, []byte{1, 2, 3, 4}); err != nil {
			t.Error(err)
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if us := lat.Microseconds(); us < 65 || us > 105 {
		t.Fatalf("native API 4-byte latency %.1f µs, want ≈85", us)
	}
}

func TestNativeAPIRoundtripContent(t *testing.T) {
	k := sim.NewKernel()
	n, _ := xport.NewSwitch(k, DefaultConfig(2))
	a0 := OpenAPI(n, 0, DefaultAPIConfig())
	a1 := OpenAPI(n, 1, DefaultAPIConfig())
	msg := make([]byte, 2000)
	sim.NewRNG(11).Bytes(msg)
	var got []byte
	k.Spawn("rx", func(p *sim.Proc) {
		buf := make([]byte, 4096)
		n, err := a1.Recv(p, 0, buf)
		if err != nil {
			t.Error(err)
			return
		}
		got = append(got, buf[:n]...)
		// Echo back.
		if err := a1.Send(p, 0, got); err != nil {
			t.Error(err)
		}
	})
	k.Spawn("tx", func(p *sim.Proc) {
		if err := a0.Send(p, 1, msg); err != nil {
			t.Error(err)
			return
		}
		buf := make([]byte, 4096)
		if _, err := a0.Recv(p, 1, buf); err != nil {
			t.Error(err)
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, msg) {
		t.Fatal("payload corrupted")
	}
}

func TestNativeAPIInOrder(t *testing.T) {
	k := sim.NewKernel()
	n, _ := xport.NewSwitch(k, DefaultConfig(2))
	a0 := OpenAPI(n, 0, DefaultAPIConfig())
	a1 := OpenAPI(n, 1, DefaultAPIConfig())
	const count = 20
	var got []int
	k.Spawn("tx", func(p *sim.Proc) {
		for i := 0; i < count; i++ {
			if err := a0.Send(p, 1, []byte{byte(i)}); err != nil {
				t.Error(err)
				return
			}
		}
	})
	k.Spawn("rx", func(p *sim.Proc) {
		buf := make([]byte, 8)
		for i := 0; i < count; i++ {
			if _, err := a1.Recv(p, 0, buf); err != nil {
				t.Error(err)
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
			t.Fatalf("out of order: %v", got)
		}
	}
}

func TestNativeAPITimeout(t *testing.T) {
	k := sim.NewKernel()
	n, _ := xport.NewSwitch(k, DefaultConfig(2))
	cfg := DefaultAPIConfig()
	cfg.RecvTimeout = 100 * sim.Microsecond
	a1 := OpenAPI(n, 1, cfg)
	var err error
	k.Spawn("rx", func(p *sim.Proc) {
		_, err = a1.Recv(p, 0, make([]byte, 8))
	})
	if e := k.Run(); e != nil {
		t.Fatal(e)
	}
	if err != ErrTimeout {
		t.Fatalf("err = %v, want ErrTimeout", err)
	}
}

func TestNativeAPIMcastAndRecvAny(t *testing.T) {
	k := sim.NewKernel()
	n, _ := xport.NewSwitch(k, DefaultConfig(4))
	apis := make([]*API, 4)
	for i := range apis {
		apis[i] = OpenAPI(n, i, DefaultAPIConfig())
	}
	if apis[0].Rank() != 0 || apis[0].Procs() != 4 || apis[0].NativeMcast() {
		t.Fatal("identity accessors wrong")
	}
	got := map[int]bool{}
	k.Spawn("tx", func(p *sim.Proc) {
		if err := apis[0].Mcast(p, []int{1, 2, 3}, []byte("fan")); err != nil {
			t.Error(err)
		}
	})
	k.Spawn("collector", func(p *sim.Proc) {
		// Nodes 1-3 each forward to node 1, which gathers with RecvAny.
		p.Delay(1 * sim.Millisecond)
		buf := make([]byte, 16)
		for _, a := range apis[1:] {
			nn, ok, err := a.TryRecv(p, 0, buf)
			if !ok || err != nil || string(buf[:nn]) != "fan" {
				t.Errorf("node %d TryRecv: ok=%v err=%v", a.Rank(), ok, err)
			}
			got[a.Rank()] = true
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 {
		t.Fatalf("mcast reached %d of 3", len(got))
	}
}

func TestNativeAPIRecvAnyFair(t *testing.T) {
	k := sim.NewKernel()
	n, _ := xport.NewSwitch(k, DefaultConfig(3))
	a0 := OpenAPI(n, 0, DefaultAPIConfig())
	a1 := OpenAPI(n, 1, DefaultAPIConfig())
	a2 := OpenAPI(n, 2, DefaultAPIConfig())
	seen := map[int]int{}
	k.Spawn("tx1", func(p *sim.Proc) {
		for i := 0; i < 3; i++ {
			if err := a1.Send(p, 0, []byte{1}); err != nil {
				t.Error(err)
			}
		}
	})
	k.Spawn("tx2", func(p *sim.Proc) {
		for i := 0; i < 3; i++ {
			if err := a2.Send(p, 0, []byte{2}); err != nil {
				t.Error(err)
			}
		}
	})
	k.Spawn("rx", func(p *sim.Proc) {
		buf := make([]byte, 8)
		for i := 0; i < 6; i++ {
			src, _, err := a0.RecvAny(p, buf)
			if err != nil || int(buf[0]) != src {
				t.Errorf("RecvAny: src=%d err=%v", src, err)
				return
			}
			seen[src]++
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if seen[1] != 3 || seen[2] != 3 {
		t.Fatalf("seen = %v", seen)
	}
	packets, _, bytes := n.Stats()
	if packets == 0 || bytes == 0 {
		t.Fatal("fabric stats not counted")
	}
}

func TestNativeAPIBadArgs(t *testing.T) {
	k := sim.NewKernel()
	n, _ := xport.NewSwitch(k, DefaultConfig(2))
	a0 := OpenAPI(n, 0, DefaultAPIConfig())
	k.Spawn("p", func(p *sim.Proc) {
		if err := a0.Send(p, 0, nil); err == nil {
			t.Error("self-send accepted")
		}
		if err := a0.Send(p, 5, nil); err == nil {
			t.Error("bad destination accepted")
		}
		if err := a0.Send(p, 1, make([]byte, a0.MaxMessage()+1)); err == nil {
			t.Error("oversize accepted")
		}
		if _, err := a0.Recv(p, 0, nil); err != ErrBadRank {
			t.Errorf("Recv from self: %v", err)
		}
		if _, _, err := a0.TryRecv(p, 2, nil); err != ErrBadRank {
			t.Errorf("TryRecv from 2: %v", err)
		}
		if msg, ok, err := a0.TryTake(p, 0, &xport.Buffers{}); msg != nil || ok || err != ErrBadRank {
			t.Errorf("TryTake from self: %v, %v, %v", msg, ok, err)
		}
		for _, dsts := range [][]int{nil, {0}, {1, 2}} {
			if err := a0.Mcast(p, dsts, nil); err != ErrBadRank {
				t.Errorf("Mcast to %v: %v", dsts, err)
			}
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestBandwidthNear160MBs(t *testing.T) {
	k := sim.NewKernel()
	cfg := DefaultConfig(2)
	n, _ := xport.NewSwitch(k, cfg)
	const count = 100
	var last sim.Time
	n.SetHandler(1, func(src int, frame []byte) { last = k.Now() })
	k.At(0, func() {
		for i := 0; i < count; i++ {
			n.Transmit(0, 1, make([]byte, 4096))
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	mbps := float64(4096*count) / (float64(last) / 1e9) / 1e6
	if mbps < 140 || mbps > 175 {
		t.Fatalf("wire rate %.1f MB/s, want ≈160", mbps)
	}
}

func TestNativeAPITruncatedRecvConsumes(t *testing.T) {
	// A too-small buffer fails the receive and consumes the message,
	// through Recv and TryRecv alike.
	k := sim.NewKernel()
	n, _ := xport.NewSwitch(k, DefaultConfig(2))
	a0 := OpenAPI(n, 0, DefaultAPIConfig())
	a1 := OpenAPI(n, 1, DefaultAPIConfig())
	k.Spawn("tx", func(p *sim.Proc) {
		for _, m := range []string{"first message", "second message", "ok"} {
			if err := a0.Send(p, 1, []byte(m)); err != nil {
				t.Error(err)
			}
		}
	})
	k.Spawn("rx", func(p *sim.Proc) {
		small := make([]byte, 4)
		if _, err := a1.Recv(p, 0, small); err == nil {
			t.Error("truncated Recv succeeded")
		}
		p.Delay(1 * sim.Millisecond)
		if _, ok, err := a1.TryRecv(p, 0, small); ok || err == nil {
			t.Errorf("truncated TryRecv: ok=%v err=%v", ok, err)
		}
		n, err := a1.Recv(p, 0, small)
		if err != nil || string(small[:n]) != "ok" {
			t.Errorf("third message: %q, %v", small[:n], err)
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}

// TestTryTakeMatchesTryRecv runs one polling receiver twice, once with
// TryRecv and once with TryTake, over messages of one to several
// fabric frames: the two must return at the same virtual times with the
// same payloads, and TryTake must hand out buffers sized to them.
func TestTryTakeMatchesTryRecv(t *testing.T) {
	sizes := []int{0, 5, 4000, 17, 9000, 1, 30000}
	run := func(take bool) (calls []string, got [][]byte) {
		k := sim.NewKernel()
		defer k.Close()
		sw, _ := xport.NewSwitch(k, DefaultConfig(3))
		a0 := OpenAPI(sw, 0, DefaultAPIConfig())
		a1 := OpenAPI(sw, 1, DefaultAPIConfig())
		k.Spawn("tx", func(p *sim.Proc) {
			for i, size := range sizes {
				if err := a0.Send(p, 1, bytes.Repeat([]byte{byte(i + 1)}, size)); err != nil {
					t.Error(err)
				}
			}
		})
		k.Spawn("rx", func(p *sim.Proc) {
			var bufs xport.Buffers
			buf := make([]byte, 32<<10)
			for len(got) < len(sizes) {
				var msg []byte
				var ok bool
				var err error
				if take {
					msg, ok, err = a1.TryTake(p, 0, &bufs)
				} else {
					var n int
					n, ok, err = a1.TryRecv(p, 0, buf)
					msg = buf[:n]
				}
				calls = append(calls, fmt.Sprintf("%v ok=%v n=%d err=%v", p.Now(), ok, len(msg), err))
				if err != nil {
					t.Error(err)
					return
				}
				if ok {
					got = append(got, append([]byte(nil), msg...))
					if take {
						bufs.Put(msg)
					}
				}
			}
		})
		if err := k.Run(); err != nil {
			t.Fatal(err)
		}
		return calls, got
	}
	recvCalls, recvGot := run(false)
	takeCalls, takeGot := run(true)
	for i, size := range sizes {
		want := bytes.Repeat([]byte{byte(i + 1)}, size)
		if i >= len(takeGot) || !bytes.Equal(takeGot[i], want) || !bytes.Equal(recvGot[i], want) {
			t.Fatalf("message %d differs from what was sent", i)
		}
	}
	if fmt.Sprint(takeCalls) != fmt.Sprint(recvCalls) {
		t.Fatalf("the receives returned differently:\nTryRecv %v\nTryTake %v", recvCalls, takeCalls)
	}
}

// TestSweepMatchesLoopSweep runs one sweeping receiver twice, once with
// the API's Sweep (its poller runs the idle polls) and once with
// xport.LoopSweep over TryRecv: the two must return at the same virtual
// times with the same messages and errors, after the same executed
// events. Each sweep stops at the first wrap past a deadline 200 µs
// after it started, and the next starts just past the sender the last
// one returned; one message is too long for the receive buffer.
func TestSweepMatchesLoopSweep(t *testing.T) {
	sizes := []int{8, 6000, 0, 300, 70000, 12}
	run := func(fast bool) (calls []string) {
		k := sim.NewKernel()
		defer k.Close()
		sw, _ := xport.NewSwitch(k, DefaultConfig(4))
		apis := make([]*API, 4)
		for i := range apis {
			apis[i] = OpenAPI(sw, i, DefaultAPIConfig())
		}
		for _, src := range []int{0, 2, 3} {
			k.Spawn(fmt.Sprintf("tx%d", src), func(p *sim.Proc) {
				p.Delay(sim.Duration(src) * 40 * sim.Microsecond)
				for i, n := range sizes {
					if err := apis[src].Send(p, 1, bytes.Repeat([]byte{byte(src<<4 | i)}, n)); err != nil {
						t.Error(err)
					}
					p.Delay(sim.Duration(100+50*src) * sim.Microsecond)
				}
			})
		}
		rx := apis[1]
		k.Spawn("rx", func(p *sim.Proc) {
			buf := make([]byte, 64<<10)
			var deadline sim.Time
			stop := func() bool { return p.Now() > deadline }
			for from, got := 0, 0; got < 3*len(sizes) && len(calls) < 500; {
				deadline = p.Now().Add(200 * sim.Microsecond)
				var src, n int
				var err error
				if fast {
					src, n, err = rx.Sweep(p, from, buf, stop)
				} else {
					src, n, err = xport.LoopSweep(p, rx, from, buf, stop)
				}
				calls = append(calls, fmt.Sprintf("%v src=%d n=%d err=%v %x", p.Now(), src, n, err, buf[:min(n, 4)]))
				from = src + 1
				if src >= 0 {
					got++
				}
			}
		})
		if err := k.Run(); err != nil {
			t.Fatal(err)
		}
		return append(calls, fmt.Sprintf("end %v executed=%d", k.Now(), k.Executed()))
	}
	fast, loop := run(true), run(false)
	if all := fmt.Sprint(fast); !strings.Contains(all, "src=-1") || !strings.Contains(all, "into 65536-byte buffer") {
		t.Fatalf("want a stopped sweep and a truncated message: %v", fast)
	}
	if fmt.Sprint(fast) != fmt.Sprint(loop) {
		t.Fatalf("the sweeps returned differently:\nLoopSweep %v\nSweep     %v", loop, fast)
	}
}

// TestProbeMatchesTryTake runs the API's probe step on a Poller focused
// on one sender that stops at every wrap, which makes each receive one
// TryTake, and checks it against TryTake itself: the same receives at
// the same times, and the same clock and events, with the default poll
// cost and with none (the receiver then starts once everything has
// arrived, since a free poll of an empty inbox never advances time).
func TestProbeMatchesTryTake(t *testing.T) {
	sizes := []int{0, 5, 4000, 17, 9000}
	for _, pollCost := range []sim.Duration{DefaultAPIConfig().PollCost, 0} {
		run := func(probe bool) (calls []string) {
			k := sim.NewKernel()
			defer k.Close()
			cfg := DefaultAPIConfig()
			cfg.PollCost = pollCost
			sw, _ := xport.NewSwitch(k, DefaultConfig(3))
			a0 := OpenAPI(sw, 0, cfg)
			a1 := OpenAPI(sw, 1, cfg)
			k.Spawn("tx", func(p *sim.Proc) {
				for i, size := range sizes {
					if err := a0.Send(p, 1, bytes.Repeat([]byte{byte(i + 1)}, size)); err != nil {
						t.Error(err)
					}
				}
			})
			k.Spawn("rx", func(p *sim.Proc) {
				if pollCost == 0 {
					p.Delay(5 * sim.Millisecond)
				}
				var bufs xport.Buffers
				pl := xport.NewPoller(1, 3, nil, a1)
				stop := func() bool { return true }
				for got := 0; got < len(sizes); {
					var msg []byte
					var ok bool
					var err error
					if probe {
						pl.Start(p, 0, 1, 0, stop, -1)
						if s, step := pl.Wait(); s >= 0 {
							msg, ok, err = pl.Step(step).Take(p, s, &bufs)
						}
					} else {
						msg, ok, err = a1.TryTake(p, 0, &bufs)
					}
					calls = append(calls, fmt.Sprintf("%v ok=%v n=%d err=%v", p.Now(), ok, len(msg), err))
					if ok {
						got++
						bufs.Put(msg)
					}
				}
			})
			if err := k.Run(); err != nil {
				t.Fatal(err)
			}
			return append(calls, fmt.Sprintf("end %v executed=%d", k.Now(), k.Executed()))
		}
		if probe, take := run(true), run(false); fmt.Sprint(probe) != fmt.Sprint(take) {
			t.Fatalf("poll cost %v: the receives returned differently:\nTryTake %v\nprobe   %v", pollCost, take, probe)
		}
	}
}

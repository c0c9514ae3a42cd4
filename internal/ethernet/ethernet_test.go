package ethernet

import (
	"bytes"
	"testing"

	"repro/internal/sim"
	"repro/internal/xport"
)

func TestFrameDelivery(t *testing.T) {
	k := sim.NewKernel()
	n, err := xport.NewSwitch(k, DefaultConfig(3))
	if err != nil {
		t.Fatal(err)
	}
	var got []byte
	var from int
	n.SetHandler(2, func(src int, frame []byte) { from, got = src, append([]byte(nil), frame...) })
	k.At(0, func() { n.Transmit(0, 2, []byte("frame-payload")) })
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if from != 0 || !bytes.Equal(got, []byte("frame-payload")) {
		t.Fatalf("got src=%d payload=%q", from, got)
	}
}

func TestStoreAndForwardLatency(t *testing.T) {
	// One 1500-byte frame: two serializations (in and out of the
	// switch) plus switch latency and two propagation delays.
	k := sim.NewKernel()
	cfg := DefaultConfig(2)
	n, _ := xport.NewSwitch(k, cfg)
	var arrival sim.Time
	n.SetHandler(1, func(src int, frame []byte) { arrival = k.Now() })
	k.At(0, func() { n.Transmit(0, 1, make([]byte, 1500)) })
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	wire := sim.Duration(1500+cfg.Overhead) * cfg.UnitTime
	want := sim.Time(2*wire + 2*cfg.PropDelay + cfg.SwitchLatency)
	if arrival != want {
		t.Fatalf("arrival = %d, want %d", arrival, want)
	}
}

func TestMinimumFramePadding(t *testing.T) {
	// Frames of 1 and 46 payload bytes both pad to the 64-byte minimum
	// frame, so their one-way latencies are identical.
	latency := func(payload int) sim.Duration {
		k := sim.NewKernel()
		n, _ := xport.NewSwitch(k, DefaultConfig(2))
		var arrival sim.Time
		n.SetHandler(1, func(src int, frame []byte) { arrival = k.Now() })
		k.At(0, func() { n.Transmit(0, 1, make([]byte, payload)) })
		if err := k.Run(); err != nil {
			t.Fatal(err)
		}
		return arrival.Sub(0)
	}
	l1, l46, l100 := latency(1), latency(46), latency(100)
	if l1 != l46 {
		t.Fatalf("1-byte frame latency %d != 46-byte %d (both should pad to minimum)", l1, l46)
	}
	if l100 <= l46 {
		t.Fatalf("100-byte frame latency %d not above the padded minimum %d", l100, l46)
	}
}

func TestFIFOPerPair(t *testing.T) {
	k := sim.NewKernel()
	n, _ := xport.NewSwitch(k, DefaultConfig(2))
	var order []int
	n.SetHandler(1, func(src int, frame []byte) { order = append(order, int(frame[0])) })
	k.At(0, func() {
		for i := 0; i < 10; i++ {
			n.Transmit(0, 1, []byte{byte(i)})
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("frames reordered: %v", order)
		}
	}
}

func TestUplinkContentionSerializes(t *testing.T) {
	// Two frames from the same host must serialize on its uplink; two
	// frames from different hosts to different hosts must not.
	sameHost := measurePair(t, 0, 0)
	diffHost := measurePair(t, 0, 1)
	if sameHost <= diffHost {
		t.Fatalf("same-host last arrival %d should exceed different-host %d", sameHost, diffHost)
	}
}

func measurePair(t *testing.T, srcA, srcB int) sim.Time {
	t.Helper()
	k := sim.NewKernel()
	n, _ := xport.NewSwitch(k, DefaultConfig(4))
	var last sim.Time
	h := func(src int, frame []byte) { last = k.Now() }
	n.SetHandler(2, h)
	n.SetHandler(3, h)
	k.At(0, func() {
		n.Transmit(srcA, 2, make([]byte, 1500))
		n.Transmit(srcB, 3, make([]byte, 1500))
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	return last
}

func TestOversizeFramePanics(t *testing.T) {
	k := sim.NewKernel()
	n, _ := xport.NewSwitch(k, DefaultConfig(2))
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for frame above MTU")
		}
	}()
	n.Transmit(0, 1, make([]byte, 1501))
}

func TestTooFewNodes(t *testing.T) {
	if _, err := xport.NewSwitch(sim.NewKernel(), DefaultConfig(1)); err == nil {
		t.Fatal("1-node LAN accepted")
	}
}

package atm

import (
	"bytes"
	"testing"
	"testing/quick"

	"repro/internal/sim"
	"repro/internal/xport"
)

func TestCellsFor(t *testing.T) {
	cases := map[int]int{
		0:    1, // trailer alone occupies one cell
		1:    1,
		40:   1, // 40+8 = 48
		41:   2,
		88:   2, // 88+8 = 96
		1000: 21,
	}
	for n, want := range cases {
		if got := DefaultConfig(2).Units(n); got != want {
			t.Errorf("Units(%d) = %d, want %d", n, got, want)
		}
	}
}

func TestCellsForProperty(t *testing.T) {
	f := func(n uint16) bool {
		c := DefaultConfig(2).Units(int(n))
		// The PDU with trailer must fit, and c-1 cells must not.
		return c*48 >= int(n)+8 && (c-1)*48 < int(n)+8
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPDUDelivery(t *testing.T) {
	k := sim.NewKernel()
	n, err := xport.NewSwitch(k, DefaultConfig(4))
	if err != nil {
		t.Fatal(err)
	}
	payload := make([]byte, 5000)
	sim.NewRNG(3).Bytes(payload)
	var got []byte
	n.SetHandler(3, func(src int, frame []byte) { got = append([]byte(nil), frame...) })
	k.At(0, func() { n.Transmit(1, 3, payload) })
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatal("PDU corrupted in flight")
	}
	pdus, cells, _ := n.Stats()
	if pdus != 1 || cells != int64(DefaultConfig(2).Units(5000)) {
		t.Fatalf("stats = %d PDUs, %d cells", pdus, cells)
	}
}

func TestLatencyScalesWithCells(t *testing.T) {
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
	cfg := DefaultConfig(2)
	oneCell, threeCells := latency(10), latency(100)
	// One cell: 2 726 wire + 2×500 propagation + 7 000 switch + 2 726
	// one-cell pipeline + 3 000 SAR.
	if oneCell != 16452*sim.Nanosecond {
		t.Fatalf("10-byte PDU arrival = %d, want 16452 ns", oneCell)
	}
	// Cell-pipelined switch: the PDU serializes once end to end.
	wantDelta := sim.Duration(DefaultConfig(2).Units(100)-DefaultConfig(2).Units(10)) * cfg.UnitTime
	if got := threeCells - oneCell; got != wantDelta {
		t.Fatalf("latency delta = %d, want %d", got, wantDelta)
	}
}

func TestEffectivePayloadRate(t *testing.T) {
	// Sustained large-PDU throughput ≈ 48/53 of OC-3 ≈ 17.6 MB/s.
	k := sim.NewKernel()
	cfg := DefaultConfig(2)
	n, _ := xport.NewSwitch(k, cfg)
	const pduBytes = 9000
	const count = 50
	var last sim.Time
	n.SetHandler(1, func(src int, frame []byte) { last = k.Now() })
	k.At(0, func() {
		for i := 0; i < count; i++ {
			n.Transmit(0, 1, make([]byte, pduBytes))
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	mbps := float64(pduBytes*count) / (float64(last) / 1e9) / 1e6
	if mbps < 15.5 || mbps > 18.5 {
		t.Fatalf("ATM payload rate %.2f MB/s, want ≈17.6", mbps)
	}
}

func TestOversizePDUPanics(t *testing.T) {
	k := sim.NewKernel()
	n, _ := xport.NewSwitch(k, DefaultConfig(2))
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic above MTU")
		}
	}()
	n.Transmit(0, 1, make([]byte, 9181))
}

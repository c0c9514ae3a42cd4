// Package xporttest provides a shared conformance harness for
// xport.Fabric implementations. Every fabric in the testbed — Fast
// Ethernet, ATM, Myrinet, and the fault-injection wrapper — must
// satisfy the same frame-level contract the protocol stacks assume:
// correct addressing, bit-exact payloads, per-(src,dst) FIFO order,
// event-driven delivery that advances virtual time, handler isolation
// between nodes, and a Transmit that copies the caller's frame.
package xporttest

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/sim"
	"repro/internal/xport"
)

// Builder constructs a fresh fabric with the given node count on k.
type Builder func(k *sim.Kernel, nodes int) xport.Fabric

// delivery is one observed frame arrival.
type delivery struct {
	node, src int
	frame     []byte
	at        sim.Time
}

// FabricContract runs the full battery against the fabric built by b.
// Call it from the implementation package's tests:
//
//	xporttest.FabricContract(t, func(k *sim.Kernel, nodes int) xport.Fabric { ... })
func FabricContract(t *testing.T, b Builder) {
	t.Helper()
	t.Run("Identity", func(t *testing.T) { contractIdentity(t, b) })
	t.Run("Delivery", func(t *testing.T) { contractDelivery(t, b) })
	t.Run("FIFO", func(t *testing.T) { contractFIFO(t, b) })
	t.Run("Isolation", func(t *testing.T) { contractIsolation(t, b) })
	t.Run("TimeAdvances", func(t *testing.T) { contractTime(t, b) })
	t.Run("Copy", func(t *testing.T) { contractCopy(t, b) })
}

// capture installs recording handlers on every node of f.
func capture(f xport.Fabric, k *sim.Kernel, log *[]delivery) {
	for i := 0; i < f.Nodes(); i++ {
		i := i
		f.SetHandler(i, func(src int, frame []byte) {
			*log = append(*log, delivery{
				node: i, src: src, frame: append([]byte(nil), frame...), at: k.Now(),
			})
		})
	}
}

func contractIdentity(t *testing.T, b Builder) {
	k := sim.NewKernel()
	defer k.Close()
	f := b(k, 4)
	if f.Nodes() != 4 {
		t.Fatalf("Nodes() = %d, want 4", f.Nodes())
	}
	if f.MTU() < 1 {
		t.Fatalf("MTU() = %d, want >= 1", f.MTU())
	}
}

// contractDelivery: a frame reaches exactly its destination, with the
// true source and intact bytes, including at the MTU limit.
func contractDelivery(t *testing.T, b Builder) {
	k := sim.NewKernel()
	defer k.Close()
	f := b(k, 4)
	var log []delivery
	capture(f, k, &log)

	small := []byte{0xde, 0xad, 0xbe, 0xef}
	full := make([]byte, f.MTU())
	sim.NewRNG(3).Bytes(full)
	k.Spawn("tx", func(p *sim.Proc) {
		f.Transmit(0, 2, append([]byte(nil), small...))
		f.Transmit(3, 1, append([]byte(nil), full...))
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if len(log) != 2 {
		t.Fatalf("deliveries: %d, want 2 (%v)", len(log), log)
	}
	for _, d := range log {
		switch d.node {
		case 2:
			if d.src != 0 || !bytes.Equal(d.frame, small) {
				t.Fatalf("node 2 got src=%d frame=%x", d.src, d.frame)
			}
		case 1:
			if d.src != 3 || !bytes.Equal(d.frame, full) {
				t.Fatalf("node 1 got src=%d, %d bytes (MTU frame corrupted?)", d.src, len(d.frame))
			}
		default:
			t.Fatalf("frame leaked to node %d", d.node)
		}
	}
}

// contractFIFO: frames between one (src, dst) pair arrive in transmit
// order even when a second stream interleaves.
func contractFIFO(t *testing.T, b Builder) {
	k := sim.NewKernel()
	defer k.Close()
	f := b(k, 4)
	var log []delivery
	capture(f, k, &log)

	const per = 10
	k.Spawn("tx0", func(p *sim.Proc) {
		for i := 0; i < per; i++ {
			f.Transmit(0, 1, []byte{0, byte(i)})
			p.Delay(3 * sim.Microsecond)
		}
	})
	k.Spawn("tx2", func(p *sim.Proc) {
		for i := 0; i < per; i++ {
			f.Transmit(2, 1, []byte{2, byte(i)})
			p.Delay(5 * sim.Microsecond)
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	next := map[int]byte{0: 0, 2: 0}
	for _, d := range log {
		if d.node != 1 || len(d.frame) != 2 || int(d.frame[0]) != d.src {
			t.Fatalf("bad delivery %+v", d)
		}
		if d.frame[1] != next[d.src] {
			t.Fatalf("stream %d out of order: got %d want %d", d.src, d.frame[1], next[d.src])
		}
		next[d.src]++
	}
	if next[0] != per || next[2] != per {
		t.Fatalf("incomplete: %v", next)
	}
}

// contractIsolation: replacing one node's handler must not disturb the
// others, and a node with no handler must not crash the fabric.
func contractIsolation(t *testing.T, b Builder) {
	k := sim.NewKernel()
	defer k.Close()
	f := b(k, 4)
	var got []int
	f.SetHandler(1, func(src int, frame []byte) { got = append(got, 1) })
	f.SetHandler(2, func(src int, frame []byte) { got = append(got, 2) })
	k.Spawn("tx", func(p *sim.Proc) {
		f.Transmit(0, 1, []byte{1})
		f.Transmit(0, 3, []byte{3}) // node 3 has no handler installed
		f.Transmit(0, 2, []byte{2})
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(got) != "[1 2]" && fmt.Sprint(got) != "[2 1]" {
		t.Fatalf("handler calls: %v", got)
	}
}

// contractTime: delivery is event-driven and strictly after transmit —
// a physical fabric cannot deliver at the instant of posting.
func contractTime(t *testing.T, b Builder) {
	k := sim.NewKernel()
	defer k.Close()
	f := b(k, 2)
	var log []delivery
	capture(f, k, &log)
	var posted sim.Time
	k.Spawn("tx", func(p *sim.Proc) {
		p.Delay(1 * sim.Microsecond)
		posted = p.Now()
		f.Transmit(0, 1, make([]byte, 64))
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if len(log) != 1 {
		t.Fatalf("deliveries: %d", len(log))
	}
	if !(log[0].at > posted) {
		t.Fatalf("delivered at %v, posted at %v — zero-latency fabric", log[0].at, posted)
	}
}

// contractCopy: Transmit copies the frame, so a caller that overwrites
// its slice as soon as Transmit returns, with frames of several sizes
// still in flight, changes none of the bytes delivered.
func contractCopy(t *testing.T, b Builder) {
	k := sim.NewKernel()
	defer k.Close()
	f := b(k, 2)
	var log []delivery
	capture(f, k, &log)
	buf := make([]byte, f.MTU())
	var want [][]byte
	k.Spawn("tx", func(p *sim.Proc) {
		for i, n := range []int{f.MTU(), 1, f.MTU() / 2, 64} {
			sim.NewRNG(uint64(i)).Bytes(buf[:n])
			want = append(want, append([]byte(nil), buf[:n]...))
			f.Transmit(0, 1, buf[:n])
		}
		clear(buf)
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if len(log) != len(want) {
		t.Fatalf("deliveries: %d, want %d", len(log), len(want))
	}
	for i, d := range log {
		if !bytes.Equal(d.frame, want[i]) {
			t.Fatalf("frame %d (%d bytes) changed after Transmit returned", i, len(want[i]))
		}
	}
}

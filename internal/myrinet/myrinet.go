// Package myrinet models a Myrinet SAN of the paper's era: 1.28 Gb/s
// full-duplex links into a cut-through (wormhole) crossbar switch, plus
// the vendor's user-level API ("Myrinet API" in Figures 2–3 — the
// MyriAPI library, not the research FM/BIP layers).
//
// Cut-through switching means a packet's head can leave the switch while
// its tail is still arriving, so end-to-end latency is one serialization
// plus a small per-switch routing delay — not two serializations as in a
// store-and-forward Ethernet switch. Both the input and output links are
// still occupied for the packet's full wire time.
//
// The SAN is a calibration profile of xport.Switch; build it with
// xport.NewSwitch(k, DefaultConfig(nodes)).
package myrinet

import (
	"repro/internal/sim"
	"repro/internal/xport"
)

// DefaultConfig returns a 1.28 Gb/s Myrinet. The MTU is the packet
// payload limit handed to the fabric: Myrinet has no hard architectural
// limit, NIC SRAM staging bounds it. Each packet carries a 16-byte
// source-route header plus CRC on the wire.
func DefaultConfig(nodes int) xport.SwitchConfig {
	return xport.SwitchConfig{
		Nodes:         nodes,
		MTU:           4096,
		Unit:          1,
		Overhead:      16,
		UnitTime:      6 * sim.Nanosecond, // ≈1.28 Gb/s (exactly 6.25 ns/B)
		PropDelay:     100 * sim.Nanosecond,
		SwitchLatency: 550 * sim.Nanosecond,
		CutThrough:    true,
	}
}

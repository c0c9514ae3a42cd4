// Package ethernet models a switched full-duplex Fast Ethernet
// (100BASE-TX) LAN of the paper's era: per-host links into one
// store-and-forward switch, 1500-byte MTU, and 38 bytes of on-wire
// overhead per frame (preamble 8 + MAC header 14 + FCS 4 + inter-frame
// gap 12). At 100 Mb/s the wire moves one byte every 80 ns.
//
// The LAN is a calibration profile of xport.Switch with one-byte wire
// units; build it with xport.NewSwitch(k, DefaultConfig(nodes)).
package ethernet

import (
	"repro/internal/sim"
	"repro/internal/xport"
)

// DefaultConfig returns a 100 Mb/s switched LAN.
func DefaultConfig(nodes int) xport.SwitchConfig {
	return xport.SwitchConfig{
		Nodes:    nodes,
		MTU:      1500,
		Unit:     1,
		Overhead: 38,
		// The 64-byte minimum frame counts MAC header and FCS but not
		// preamble and IFG (20 bytes), so the minimum on-wire size is
		// 64+20 bytes.
		MinUnits:      84,
		UnitTime:      80 * sim.Nanosecond,
		PropDelay:     500 * sim.Nanosecond,
		SwitchLatency: 12 * sim.Microsecond,
	}
}

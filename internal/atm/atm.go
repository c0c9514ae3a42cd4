// Package atm models an OC-3 ATM LAN: per-host 155.52 Mb/s links into a
// cell switch, with AAL5 segmentation and reassembly in the NIC.
//
// An AAL5 PDU carries the payload plus an 8-byte trailer, padded to a
// multiple of 48 bytes; each 48-byte chunk travels in one 53-byte cell.
// At 155.52 Mb/s one 53-byte cell serializes in ≈2.73 µs, so the
// effective payload rate is ≈17.6 MB/s — higher than Fast Ethernet,
// which is what lets ATM overtake SCRAMNet at a smaller message size in
// Figure 2 despite its higher per-message latency. AAL5 CRC-32 is
// computed by the SAR hardware, not the host, so the TCP-lite profile
// for ATM charges no software checksum.
//
// The LAN is a calibration profile of xport.Switch with 48-byte wire
// units; build it with xport.NewSwitch(k, DefaultConfig(nodes)).
package atm

import (
	"repro/internal/sim"
	"repro/internal/xport"
)

// OC-3 calibration.
const (
	// cellTime is the serialization time of one 53-byte cell.
	cellTime = 2726 * sim.Nanosecond
	// switchTraversal is the per-PDU switch traversal cost.
	switchTraversal = 7 * sim.Microsecond
	// sarCost is the NIC's per-PDU segmentation/reassembly overhead.
	sarCost = 3 * sim.Microsecond
)

// DefaultConfig returns an OC-3 LAN. The switch forwards cell by cell:
// the first cells of a long PDU leave the switch while later cells are
// still arriving, so the PDU serializes once end to end, shifted by one
// cell of pipeline. That cell time and the SAR cost are folded into the
// switch latency. The MTU of 9180 is the classical IP-over-ATM MTU.
func DefaultConfig(nodes int) xport.SwitchConfig {
	return xport.SwitchConfig{
		Nodes:         nodes,
		MTU:           9180,
		Unit:          48,
		Overhead:      8, // AAL5 trailer
		UnitTime:      cellTime,
		PropDelay:     500 * sim.Nanosecond,
		SwitchLatency: switchTraversal + cellTime + sarCost,
		CutThrough:    true,
	}
}

package xport

import (
	"fmt"

	"repro/internal/sim"
)

// SwitchConfig describes a switched LAN: one full-duplex link per host
// into a single switch. Fast Ethernet, ATM and Myrinet are calibration
// profiles of it (each package's DefaultConfig); they differ only in
// how a frame is cut into wire units and in how the switch forwards.
type SwitchConfig struct {
	Nodes int
	// MTU is the largest frame payload the fabric accepts.
	MTU int
	// Unit is the size of one wire unit in bytes: 1 for a byte stream,
	// 48 for the payload of an ATM cell.
	Unit int
	// Overhead is the per-frame bytes added to the payload before it is
	// cut into units (framing, headers, trailers).
	Overhead int
	// MinUnits pads short frames to a minimum on-wire size.
	MinUnits int
	// UnitTime is the serialization time of one wire unit.
	UnitTime sim.Duration
	// PropDelay is the propagation delay of one link.
	PropDelay sim.Duration
	// SwitchLatency is the switch's per-frame forwarding delay,
	// excluding serialization.
	SwitchLatency sim.Duration
	// CutThrough selects the forwarding path. A store-and-forward switch
	// receives the whole frame, then re-serializes it on the output
	// link. A cut-through switch sends the head on while the tail is
	// still arriving, so the frame serializes once end to end; the
	// output link is still held for the full wire time.
	CutThrough bool
}

// Units returns the wire units a frame of n payload bytes occupies:
// payload plus overhead rounded up to whole units, at least MinUnits.
func (c SwitchConfig) Units(n int) int {
	return max((n+c.Overhead+c.Unit-1)/c.Unit, c.MinUnits)
}

// Switch is a switched LAN built from a SwitchConfig; it implements
// Fabric.
type Switch struct {
	k        *sim.Kernel
	cfg      SwitchConfig
	up, down []*sim.Server // per-host uplink (host→switch) and downlink
	handlers []func(src int, frame []byte)

	frames, units, bytes int64
}

// NewSwitch builds the LAN on kernel k.
func NewSwitch(k *sim.Kernel, cfg SwitchConfig) (*Switch, error) {
	if cfg.Nodes < 2 {
		return nil, fmt.Errorf("xport: switch needs at least 2 nodes, got %d", cfg.Nodes)
	}
	s := &Switch{k: k, cfg: cfg, handlers: make([]func(int, []byte), cfg.Nodes)}
	for i := 0; i < cfg.Nodes; i++ {
		s.up = append(s.up, sim.NewServer(k))
		s.down = append(s.down, sim.NewServer(k))
	}
	return s, nil
}

// Nodes returns the host count.
func (s *Switch) Nodes() int { return s.cfg.Nodes }

// MTU returns the frame payload limit.
func (s *Switch) MTU() int { return s.cfg.MTU }

// SetHandler installs node's frame delivery callback.
func (s *Switch) SetHandler(node int, fn func(src int, frame []byte)) {
	s.handlers[node] = fn
}

// Transmit sends one frame src→switch→dst.
func (s *Switch) Transmit(src, dst int, frame []byte) {
	if len(frame) > s.cfg.MTU {
		panic(fmt.Sprintf("xport: %d-byte frame exceeds MTU %d", len(frame), s.cfg.MTU))
	}
	units := s.cfg.Units(len(frame))
	s.frames++
	s.units += int64(units)
	s.bytes += int64(len(frame))
	wire := sim.Duration(units) * s.cfg.UnitTime
	if s.cfg.CutThrough {
		// Occupy the output link now for contention purposes; delivery
		// completes when the tail has crossed the input serialization
		// and the cut-through pipeline.
		s.down[dst].Serve(wire, nil)
		s.up[src].Serve(wire, func() {
			s.k.AfterKind(2*s.cfg.PropDelay+s.cfg.SwitchLatency, sim.KindFabric, func() { s.deliver(src, dst, frame) })
		})
		return
	}
	// The frame is fully at the switch after propagation; it leaves
	// after the switch latency, re-serialized on the output port.
	s.up[src].Serve(wire, func() {
		s.k.AfterKind(s.cfg.PropDelay+s.cfg.SwitchLatency, sim.KindFabric, func() {
			s.down[dst].Serve(wire, func() {
				s.k.AfterKind(s.cfg.PropDelay, sim.KindFabric, func() { s.deliver(src, dst, frame) })
			})
		})
	})
}

func (s *Switch) deliver(src, dst int, frame []byte) {
	if h := s.handlers[dst]; h != nil {
		h(src, frame)
	}
}

// Stats returns frames, wire units and payload bytes transmitted.
func (s *Switch) Stats() (frames, units, bytes int64) { return s.frames, s.units, s.bytes }

var _ Fabric = (*Switch)(nil)

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

	// free holds the delivered frames Transmit reuses; made counts the
	// frame objects ever allocated, every one of which is back on free
	// once the switch is quiescent.
	free []*frame
	made int
}

// frame is one frame in flight from src to dst. Frames are recycled:
// Transmit takes one from the switch's free list and copies the
// caller's bytes into data, which keeps its buffer across reuse, and
// the arrive step returns it once dst's handler has returned. A
// released frame has a nil s, so a hop step that ran on one would
// fault at once.
type frame struct {
	s        *Switch
	src, dst int
	wire     sim.Duration
	data     []byte
	// upDone, atSwitch, downDone and arrive are the frame's hop steps,
	// bound once per frame object so that a hop schedules them without
	// allocating.
	upDone, atSwitch, downDone, arrive func()
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

// Transmit sends one frame src→switch→dst. It copies frame, so the
// caller may reuse the slice once Transmit returns.
func (s *Switch) Transmit(src, dst int, data []byte) {
	if len(data) > s.cfg.MTU {
		panic(fmt.Sprintf("xport: %d-byte frame exceeds MTU %d", len(data), s.cfg.MTU))
	}
	units := s.cfg.Units(len(data))
	s.frames++
	s.units += int64(units)
	s.bytes += int64(len(data))
	f := s.newFrame(src, dst, sim.Duration(units)*s.cfg.UnitTime, data)
	if s.cfg.CutThrough {
		// Occupy the output link now for contention purposes; delivery
		// completes when the tail has crossed the input serialization
		// and the cut-through pipeline.
		s.down[dst].Serve(f.wire, nil)
	}
	s.up[src].Serve(f.wire, f.upDone)
}

// newFrame returns a frame of this switch carrying a copy of data,
// reusing a delivered one when there is one.
func (s *Switch) newFrame(src, dst int, wire sim.Duration, data []byte) *frame {
	var f *frame
	if last := len(s.free) - 1; last >= 0 {
		f = s.free[last]
		s.free[last] = nil
		s.free = s.free[:last]
	} else {
		f = &frame{}
		f.upDone, f.atSwitch, f.downDone, f.arrive = f.upDoneHop, f.atSwitchHop, f.downDoneHop, f.arriveHop
		s.made++
	}
	f.s, f.src, f.dst, f.wire = s, src, dst, wire
	f.data = append(f.data[:0], data...)
	return f
}

// upDoneHop runs when the frame's tail has left src's uplink. A
// cut-through switch delivers after the pipeline; a store-and-forward
// one has the frame fully at the switch after propagation and sends it
// on after the switch latency.
func (f *frame) upDoneHop() {
	s := f.s
	if s.cfg.CutThrough {
		s.k.AfterKind(2*s.cfg.PropDelay+s.cfg.SwitchLatency, sim.KindFabric, f.arrive)
		return
	}
	s.k.AfterKind(s.cfg.PropDelay+s.cfg.SwitchLatency, sim.KindFabric, f.atSwitch)
}

// atSwitchHop re-serializes a stored frame on dst's downlink.
func (f *frame) atSwitchHop() { f.s.down[f.dst].Serve(f.wire, f.downDone) }

// downDoneHop runs when the frame's tail has left the switch.
func (f *frame) downDoneHop() { f.s.k.AfterKind(f.s.cfg.PropDelay, sim.KindFabric, f.arrive) }

// arriveHop hands the frame to dst's handler, if any, and returns it to
// the free list once the handler has returned.
func (f *frame) arriveHop() {
	s := f.s
	if h := s.handlers[f.dst]; h != nil {
		h(f.src, f.data)
	}
	f.s = nil
	s.free = append(s.free, f)
}

// Stats returns frames, wire units and payload bytes transmitted.
func (s *Switch) Stats() (frames, units, bytes int64) { return s.frames, s.units, s.bytes }

var _ Fabric = (*Switch)(nil)

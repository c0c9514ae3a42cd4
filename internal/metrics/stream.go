package metrics

import (
	"encoding/json"
	"io"

	"repro/internal/sim"
)

// StreamPoint is one periodic capture of the full registry at a virtual
// timestamp. Snapshot's slices are sorted by (name, node) and struct
// field order is fixed, so marshalling a point is byte-stable.
type StreamPoint struct {
	T    int64    `json:"t_ns"`
	Snap Snapshot `json:"snapshot"`
}

// Stream captures the full metrics registry every fixed virtual-time
// interval, accumulating an in-order sequence of StreamPoints. Captures
// run in timer callbacks and cost zero virtual time, so enabling a
// stream never perturbs simulated latencies. The stream stops
// rescheduling itself once it is the only event source left, so a
// simulation driven by Kernel.Run still terminates.
type Stream struct {
	k     *sim.Kernel
	reg   *Registry
	every sim.Duration

	points  []StreamPoint
	timer   *sim.Timer
	stopped bool
}

// NewStream starts capturing reg every `every` of virtual time,
// beginning with a baseline point at the current virtual time. Returns
// nil (safe to use) if any argument is missing or the interval is not
// positive.
func NewStream(k *sim.Kernel, reg *Registry, every sim.Duration) *Stream {
	if k == nil || reg == nil || every <= 0 {
		return nil
	}
	s := &Stream{k: k, reg: reg, every: every}
	s.capture()
	s.arm()
	return s
}

func (s *Stream) capture() {
	s.points = append(s.points, StreamPoint{T: int64(s.k.Now()), Snap: s.reg.Snapshot()})
}

func (s *Stream) arm() {
	// Observer scheduling keeps this tick out of Pending, so the stream
	// and any other periodic observer (e.g. a liveness ticker) cannot
	// keep each other alive after the workload drains.
	s.timer = s.k.Timer(s.every, sim.KindObserver, func() {
		if s.stopped {
			return
		}
		s.capture()
		// Our own tick has been popped already, so any remaining
		// non-observer event belongs to the workload; with none left the
		// run is over and rearming would only keep the kernel spinning.
		if s.k.Pending() > 0 {
			s.arm()
		}
	})
}

// Stop cancels future captures; already-captured points remain.
func (s *Stream) Stop() {
	if s == nil || s.stopped {
		return
	}
	s.stopped = true
	s.timer.Stop()
}

// Points returns the captures so far, in virtual-time order.
func (s *Stream) Points() []StreamPoint {
	if s == nil {
		return nil
	}
	return s.points
}

// WritePointsJSONL writes one compact JSON object per line per point.
// The encoding is byte-stable: identical simulations produce identical
// output (see TestStreamJSONLDeterminism).
func WritePointsJSONL(w io.Writer, points []StreamPoint) error {
	for _, p := range points {
		b, err := json.Marshal(p)
		if err != nil {
			return err
		}
		if _, err := w.Write(append(b, '\n')); err != nil {
			return err
		}
	}
	return nil
}

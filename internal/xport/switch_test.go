package xport_test

import (
	"testing"

	"repro/internal/ethernet"
	"repro/internal/fault"
	"repro/internal/myrinet"
	"repro/internal/sim"
	"repro/internal/xport"
)

// TestSwitchFramesBounded runs bursts from three sources into one sink
// on a store-and-forward and a cut-through switch: once quiescent, the
// switch has made no more frame objects than were ever in flight at
// once, and every one of them is back on its free list.
func TestSwitchFramesBounded(t *testing.T) {
	for name, cfg := range map[string]xport.SwitchConfig{
		"store-and-forward": ethernet.DefaultConfig(4),
		"cut-through":       myrinet.DefaultConfig(4),
	} {
		k := sim.NewKernel()
		s, err := xport.NewSwitch(k, cfg)
		if err != nil {
			t.Fatal(err)
		}
		inFlight, peak, delivered := 0, 0, 0
		for i := 0; i < 4; i++ {
			s.SetHandler(i, func(src int, frame []byte) { inFlight--; delivered++ })
		}
		const bursts, per = 5, 6
		for b := 0; b < bursts; b++ {
			for src := 1; src < 4; src++ {
				k.At(sim.Time(b)*sim.Time(sim.Millisecond), func() {
					for i := 0; i < per; i++ {
						s.Transmit(src, 0, make([]byte, 64*(i+1)))
						inFlight++
						peak = max(peak, inFlight)
					}
				})
			}
		}
		if err := k.Run(); err != nil {
			t.Fatal(err)
		}
		k.Close()
		if delivered != bursts*3*per {
			t.Fatalf("%s: %d frames delivered, want %d", name, delivered, bursts*3*per)
		}
		made, free := s.FrameObjects()
		if made > peak || free != made {
			t.Fatalf("%s: %d frame objects made, %d free, at most %d in flight at once", name, made, free, peak)
		}
	}
}

// TestSwitchFrameReleasedUndelivered sends frames one at a time that
// never reach a handler: to a node with none, and through a
// fault.Fabric that drops them at delivery or at transmit. One frame
// object carries them all.
func TestSwitchFrameReleasedUndelivered(t *testing.T) {
	k := sim.NewKernel()
	defer k.Close()
	s, err := xport.NewSwitch(k, ethernet.DefaultConfig(4))
	if err != nil {
		t.Fatal(err)
	}
	f := fault.NewFabric(k, s, 1)
	got := 0
	f.SetHandler(1, func(src int, frame []byte) { got++ })
	step := sim.Time(sim.Millisecond)
	k.At(0, func() { f.Transmit(0, 3, make([]byte, 1500)) }) // no handler at node 3
	k.At(step, func() {
		f.Transmit(0, 1, make([]byte, 1500))
		f.FailNode(1) // in flight: dropped at delivery
	})
	k.At(2*step, func() { f.Transmit(0, 1, make([]byte, 1500)) }) // dropped at transmit
	k.At(3*step, func() {
		f.RepairNode(1)
		f.Transmit(0, 1, make([]byte, 1500))
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if got != 1 {
		t.Fatalf("%d frames delivered, want 1", got)
	}
	if st := f.Stats(); st.DroppedDown != 2 {
		t.Fatalf("%d frames dropped at a down node, want 2", st.DroppedDown)
	}
	if made, free := s.FrameObjects(); made != 1 || free != 1 {
		t.Fatalf("%d frame objects made, %d free, want 1 and 1", made, free)
	}
}

package metrics

import (
	"testing"

	"repro/internal/sim"
)

// profiledRun executes a small labeled workload and returns its profile.
func profiledRun(t *testing.T) *sim.Profiler {
	t.Helper()
	p := sim.NewProfiler()
	k := sim.NewKernel()
	k.SetProfiler(p)
	k.AfterKind(10, sim.KindRing, func() {})
	k.AfterKind(20, sim.KindRing, func() {})
	k.AfterKind(30, sim.KindBus, func() {})
	k.After(40, func() {})
	if err := k.Run(); err != nil {
		t.Fatalf("run: %v", err)
	}
	if p.TotalEvents() != 4 {
		t.Fatalf("TotalEvents = %d, want 4", p.TotalEvents())
	}
	return p
}

func TestPublishKernelProfile(t *testing.T) {
	p := profiledRun(t)
	reg := New()
	PublishKernelProfile(reg, p)
	snap := reg.Snapshot()

	for _, s := range p.Stats() {
		if v, ok := snap.Counter("sim.events."+s.Kind, NodeGlobal); !ok || v != s.Events {
			t.Errorf("sim.events.%s = %d (ok=%v), want %d", s.Kind, v, ok, s.Events)
		}
		if v, ok := snap.Counter("sim.wall_ns."+s.Kind, NodeGlobal); !ok || v != s.WallNs {
			t.Errorf("sim.wall_ns.%s = %d (ok=%v), want %d", s.Kind, v, ok, s.WallNs)
		}
		h, ok := snap.Histogram("sim.event_wall_ns."+s.Kind, NodeGlobal)
		if !ok {
			t.Errorf("sim.event_wall_ns.%s missing", s.Kind)
			continue
		}
		if h.Count != s.Events {
			t.Errorf("sim.event_wall_ns.%s count = %d, want %d", s.Kind, h.Count, s.Events)
		}
		// Bucket shape must match the profiler exactly.
		var want []BucketCount
		for i, n := range s.Buckets {
			if n != 0 {
				want = append(want, BucketCount{i, n})
			}
		}
		if len(h.Buckets) != len(want) {
			t.Errorf("sim.event_wall_ns.%s buckets = %v, want %v", s.Kind, h.Buckets, want)
			continue
		}
		for i := range want {
			if h.Buckets[i] != want[i] {
				t.Errorf("sim.event_wall_ns.%s bucket %d = %v, want %v", s.Kind, i, h.Buckets[i], want[i])
			}
		}
	}
}

func TestPublishKernelProfileNil(t *testing.T) {
	// All nil combinations are no-ops, not panics.
	PublishKernelProfile(nil, nil)
	PublishKernelProfile(nil, sim.NewProfiler())
	reg := New()
	PublishKernelProfile(reg, nil)
	if s := reg.Snapshot(); len(s.Counters) != 0 {
		t.Errorf("nil profiler published counters: %v", s.Counters)
	}
}

func TestObserveN(t *testing.T) {
	h := &Histogram{}
	h.ObserveN(8, 3)
	h.ObserveN(1, 2)
	h.ObserveN(0, 1)
	h.ObserveN(5, 0)  // no-op
	h.ObserveN(5, -2) // no-op
	if h.Count() != 6 {
		t.Errorf("count = %d, want 6", h.Count())
	}
	if h.Sum() != 8*3+1*2 {
		t.Errorf("sum = %d, want 26", h.Sum())
	}
	if h.Min() != 0 || h.Max() != 8 {
		t.Errorf("min/max = %d/%d, want 0/8", h.Min(), h.Max())
	}
	// Equivalent to repeated Observe calls.
	want := &Histogram{}
	for i := 0; i < 3; i++ {
		want.Observe(8)
	}
	for i := 0; i < 2; i++ {
		want.Observe(1)
	}
	want.Observe(0)
	if *h != *want {
		t.Errorf("ObserveN diverges from repeated Observe:\n got %+v\nwant %+v", *h, *want)
	}

	var nilH *Histogram
	nilH.ObserveN(1, 1) // no-op, no panic
}
